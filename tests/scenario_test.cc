// Scenario API unit tests: builder assembly, every validation error path,
// JSON round-trip and canonical identity hashing.

#include "src/scenario/scenario.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/scenario/media.h"

namespace longstore {
namespace {

ReplicaSpec DiskLike() {
  return ReplicaSpec()
      .Media("disk")
      .FaultTimes(Duration::Hours(2000.0), Duration::Hours(400.0))
      .RepairTimes(Duration::Hours(8.0), Duration::Hours(8.0))
      .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(60.0)));
}

ReplicaSpec TapeLike() {
  return ReplicaSpec()
      .Media("tape")
      .FaultTimes(Duration::Hours(9000.0), Duration::Hours(1800.0))
      .RepairTimes(Duration::Hours(30.0), Duration::Hours(30.0))
      .ScrubEvery(Duration::Hours(720.0));
}

// Convenient matcher: Build() throws std::invalid_argument whose message
// contains `substring`.
void ExpectBuildError(const ScenarioBuilder& builder, const std::string& substring) {
  try {
    builder.Build();
    FAIL() << "expected Build() to throw (wanted message containing '" << substring
           << "')";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(substring), std::string::npos)
        << "actual message: " << error.what();
  }
}

TEST(ScenarioBuilderTest, AssemblesHeterogeneousFleet) {
  const Scenario scenario = ScenarioBuilder()
                                .Replicas(2, DiskLike())
                                .AddReplica(TapeLike())
                                .RequiredIntact(1)
                                .Correlation(0.5)
                                .Build();
  ASSERT_EQ(scenario.replica_count(), 3);
  EXPECT_EQ(scenario.replicas[0].media, "disk");
  EXPECT_EQ(scenario.replicas[1].media, "disk");
  EXPECT_EQ(scenario.replicas[2].media, "tape");
  EXPECT_EQ(scenario.replicas[2].scrub.kind, ScrubPolicy::Kind::kPeriodic);
  EXPECT_DOUBLE_EQ(scenario.alpha, 0.5);
}

TEST(ScenarioBuilderTest, CommonModeAllCoversEveryReplica) {
  const Scenario scenario = ScenarioBuilder()
                                .Replicas(3, DiskLike())
                                .CommonModeAll("site", Rate::PerYear(0.1), 0.5, 0.25)
                                .Build();
  ASSERT_EQ(scenario.common_mode.size(), 1u);
  EXPECT_EQ(scenario.common_mode[0].members, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(scenario.common_mode[0].hit_probability, 0.5);
  EXPECT_DOUBLE_EQ(scenario.common_mode[0].visible_fraction, 0.25);
}

TEST(ScenarioValidationTest, RejectsEmptyFleet) {
  ExpectBuildError(ScenarioBuilder(), "replica_count must be >= 1");
}

TEST(ScenarioValidationTest, RejectsRequiredIntactOutOfRange) {
  ExpectBuildError(ScenarioBuilder().Replicas(2, DiskLike()).RequiredIntact(3),
                   "required_intact");
  ExpectBuildError(ScenarioBuilder().Replicas(2, DiskLike()).RequiredIntact(0),
                   "required_intact");
}

TEST(ScenarioValidationTest, RejectsAlphaOutOfRange) {
  ExpectBuildError(ScenarioBuilder().Replicas(2, DiskLike()).Correlation(0.0),
                   "alpha");
  ExpectBuildError(ScenarioBuilder().Replicas(2, DiskLike()).Correlation(1.5),
                   "alpha");
}

TEST(ScenarioValidationTest, RejectsNonPositiveFaultTimes) {
  ExpectBuildError(
      ScenarioBuilder().AddReplica(
          DiskLike().FaultTimes(Duration::Zero(), Duration::Hours(1.0))),
      "mv must be positive");
  ExpectBuildError(
      ScenarioBuilder().AddReplica(
          DiskLike().FaultTimes(Duration::Hours(1.0), Duration::Hours(-2.0))),
      "ml must be positive");
}

TEST(ScenarioValidationTest, RejectsBadRepairTimes) {
  ExpectBuildError(
      ScenarioBuilder().AddReplica(
          DiskLike().RepairTimes(Duration::Hours(-1.0), Duration::Zero())),
      "repair times");
  ExpectBuildError(
      ScenarioBuilder().AddReplica(
          DiskLike().RepairTimes(Duration::Infinite(), Duration::Zero())),
      "repair times");
}

TEST(ScenarioValidationTest, RejectsNonPositiveWeibullShape) {
  ExpectBuildError(ScenarioBuilder().AddReplica(DiskLike().Weibull(0.0)),
                   "weibull_shape");
}

TEST(ScenarioValidationTest, RejectsInitialAgeOnExponentialReplica) {
  // The memoryless clock cannot see an age; silently ignoring it would hide
  // modeling mistakes.
  ExpectBuildError(
      ScenarioBuilder().AddReplica(DiskLike().InitialAge(Duration::Hours(100.0))),
      "initial age is meaningless on an exponential replica");
  // On a Weibull replica the same age is fine.
  EXPECT_NO_THROW(ScenarioBuilder()
                      .AddReplica(
                          DiskLike().Weibull(2.0).InitialAge(Duration::Hours(100.0)))
                      .Build());
}

TEST(ScenarioValidationTest, RejectsWeibullWithHazardCorrelation) {
  ExpectBuildError(
      ScenarioBuilder().Replicas(2, DiskLike().Weibull(2.0)).Correlation(0.5),
      "Weibull fault clocks are age-based");
}

// The simulator runs the physical rate convention only; the paper's lives
// in the exact chain. A scenario document asking for "paper" is refused with
// a message saying so, any other value is an unknown convention, and ToJson
// keeps writing the key so that no hash moves.
TEST(ScenarioValidationTest, RejectsThePaperConvention) {
  const std::string json = ScenarioBuilder().Replicas(2, DiskLike()).Build().ToJson();
  const std::string physical = "\"convention\":\"physical\"";
  ASSERT_NE(json.find(physical), std::string::npos) << json;
  const auto expect_refused = [&](const std::string& value,
                                  const std::vector<std::string>& wanted) {
    std::string edited = json;
    edited.replace(edited.find(physical), physical.size(),
                   "\"convention\":\"" + value + "\"");
    try {
      Scenario::FromJson(edited);
      ADD_FAILURE() << "accepted convention " << value;
    } catch (const std::invalid_argument& e) {
      for (const std::string& part : wanted) {
        EXPECT_NE(std::string(e.what()).find(part), std::string::npos) << e.what();
      }
    }
  };
  expect_refused("paper", {"physical convention", "exact chain"});
  expect_refused("quantum", {"unknown convention \"quantum\""});
}

TEST(ScenarioValidationTest, RejectsNonPositiveScrubInterval) {
  ExpectBuildError(
      ScenarioBuilder().AddReplica(DiskLike().ScrubEvery(Duration::Zero())),
      "scrub interval must be finite and positive");
}

TEST(ScenarioValidationTest, RejectsBadCommonModeSources) {
  ExpectBuildError(
      ScenarioBuilder().Replicas(2, DiskLike()).CommonModeAll("dead", Rate::Zero()),
      "positive, finite event rate");
  ExpectBuildError(ScenarioBuilder()
                       .Replicas(2, DiskLike())
                       .CommonModeAll("odds", Rate::PerYear(1.0), 1.5),
                   "'odds' hit_probability must lie in [0, 1]");
  CommonModeSource stray;
  stray.name = "stray";
  stray.event_rate = Rate::PerYear(1.0);
  stray.members = {5};
  ExpectBuildError(ScenarioBuilder().Replicas(2, DiskLike()).CommonMode(stray),
                   "out-of-range member");
}

TEST(ScenarioValidationTest, RejectsNanCommonModeProbabilities) {
  // A NaN fails every ordered comparison, so a range check written as
  // "p < 0 || p > 1" let it through, and the engine then fired common-mode
  // events that struck no replica.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExpectBuildError(ScenarioBuilder()
                       .Replicas(2, DiskLike())
                       .CommonModeAll("site", Rate::PerYear(1.0), nan),
                   "'site' hit_probability must lie in [0, 1]");
  ExpectBuildError(ScenarioBuilder()
                       .Replicas(2, DiskLike())
                       .CommonModeAll("site", Rate::PerYear(1.0), 0.5, nan),
                   "'site' visible_fraction must lie in [0, 1]");
  // The same scenario arriving as JSON is refused by the same check.
  Scenario scenario = ScenarioBuilder()
                          .Replicas(2, DiskLike())
                          .CommonModeAll("site", Rate::PerYear(1.0))
                          .Build();
  scenario.common_mode[0].hit_probability = nan;
  scenario.common_mode[0].visible_fraction = nan;
  const std::optional<std::string> error =
      Scenario::FromJson(scenario.ToJson()).Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("hit_probability"), std::string::npos) << *error;
}

TEST(ScenarioJsonTest, RoundTripPreservesEverythingBitForBit) {
  Scenario scenario = ScenarioBuilder()
                          .Replicas(2, DiskLike().Weibull(1.7).InitialAge(
                                           Duration::Hours(12345.678)))
                          .AddReplica(TapeLike().DeterministicRepair())
                          .RequiredIntact(2)
                          .CommonModeAll("power \"grid\"\n", Rate::PerHour(1e-7))
                          .Build();
  scenario.scrub_staggered = false;

  const std::string json = scenario.ToJson();
  const Scenario parsed = Scenario::FromJson(json);
  // Canonical form is the identity: equal strings iff equal field-wise.
  EXPECT_EQ(parsed.ToJson(), json);
  EXPECT_EQ(parsed.CanonicalHash(), scenario.CanonicalHash());
  ASSERT_EQ(parsed.replica_count(), 3);
  EXPECT_EQ(parsed.replicas[0].weibull_shape, 1.7);
  EXPECT_EQ(parsed.replicas[2].repair_distribution, RepairDistribution::kDeterministic);
  EXPECT_EQ(parsed.common_mode[0].name, "power \"grid\"\n");
  EXPECT_FALSE(parsed.scrub_staggered);
}

TEST(ScenarioJsonTest, RoundTripsNonFiniteDurations) {
  // Infinite fault times ("never happens") must survive serialization.
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(2, ReplicaSpec().FaultTimes(Duration::Hours(100.0),
                                                Duration::Infinite()))
          .Build();
  const Scenario parsed = Scenario::FromJson(scenario.ToJson());
  EXPECT_TRUE(parsed.replicas[0].ml.is_infinite());
  EXPECT_EQ(parsed.ToJson(), scenario.ToJson());
}

TEST(ScenarioJsonTest, HashDistinguishesFieldChanges) {
  const Scenario base = ScenarioBuilder().Replicas(2, DiskLike()).Build();
  Scenario tweaked = base;
  tweaked.replicas[1].mv = tweaked.replicas[1].mv * (1.0 + 1e-15);
  EXPECT_NE(base.CanonicalHash(), tweaked.CanonicalHash());
  Scenario relabeled = base;
  relabeled.replicas[0].media = "other disk";
  EXPECT_NE(base.CanonicalHash(), relabeled.CanonicalHash());
}

TEST(ScenarioJsonTest, RejectsMalformedInput) {
  const Scenario scenario = ScenarioBuilder().Replicas(2, DiskLike()).Build();
  const std::string json = scenario.ToJson();

  EXPECT_THROW(Scenario::FromJson(""), std::invalid_argument);
  EXPECT_THROW(Scenario::FromJson(json.substr(0, json.size() / 2)),
               std::invalid_argument);
  EXPECT_THROW(Scenario::FromJson(json + "x"), std::invalid_argument);
  EXPECT_THROW(Scenario::FromJson("{\"version\":2}"), std::invalid_argument);
  EXPECT_THROW(Scenario::FromJson("{\"version\":1}"), std::invalid_argument);

  // Unknown keys are schema drift, not noise.
  std::string unknown = json;
  unknown.insert(unknown.size() - 1, ",\"surprise\":1");
  EXPECT_THROW(Scenario::FromJson(unknown), std::invalid_argument);

  // Wrong type for a known key.
  std::string wrong_type = json;
  const auto pos = wrong_type.find("\"alpha\":1");
  ASSERT_NE(pos, std::string::npos);
  wrong_type.replace(pos, 9, "\"alpha\":true");
  EXPECT_THROW(Scenario::FromJson(wrong_type), std::invalid_argument);

  // Integer fields outside int's range (or non-finite via the "inf"
  // spelling) must fail cleanly, not invoke UB in the cast.
  for (const char* bad :
       {"1e300", "\"inf\"", "\"nan\"", "-3000000000", "1.5"}) {
    std::string out_of_range = json;
    const auto ri = out_of_range.find("\"required_intact\":1");
    ASSERT_NE(ri, std::string::npos);
    out_of_range.replace(ri, 19, std::string("\"required_intact\":") + bad);
    EXPECT_THROW(Scenario::FromJson(out_of_range), std::invalid_argument)
        << "required_intact=" << bad;
  }

  // Retired modes keep their keys at the one value each can hold; any
  // other value is rejected, naming the key.
  const auto expect_retired = [&json](const std::string& key, const std::string& held,
                                      const std::string& other) {
    std::string edited = json;
    const std::string from = "\"" + key + "\":" + held;
    const auto at = edited.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    edited.replace(at, from.size(), "\"" + key + "\":" + other);
    try {
      Scenario::FromJson(edited);
      ADD_FAILURE() << "accepted " << key << "=" << other;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key + " is a retired mode"),
                std::string::npos)
          << e.what();
    }
  };
  expect_retired("record_scrub_passes", "false", "true");
  expect_retired("visible_fault_surfaces_latent", "false", "true");
  expect_retired("scrub_phase_hours", "-1", "36.5");
}

TEST(MediaSpecTest, FactoriesMatchDerivedParams) {
  const DriveSpec drive = SeagateBarracuda200Gb();
  const ScrubPolicy scrub = ScrubPolicy::PeriodicPerYear(12.0);
  const FaultParams online = OnlineReplicaParams(drive, scrub);
  const ReplicaSpec spec = DiskSpec(drive, scrub);
  EXPECT_EQ(spec.mv, online.mv);
  EXPECT_EQ(spec.ml, online.ml);
  EXPECT_EQ(spec.mrv, online.mrv);
  EXPECT_EQ(spec.scrub.MeanDetectionLatency(), online.mdl);
  EXPECT_EQ(spec.media, drive.model);

  const DriveSpec cartridge = Lto3TapeCartridge();
  const FaultParams offline =
      OfflineReplicaParams(cartridge, 4.0, OfflineHandlingModel::Defaults());
  const ReplicaSpec tape = TapeSpec(cartridge, 4.0);
  EXPECT_EQ(tape.mv, offline.mv);
  EXPECT_EQ(tape.mrv, offline.mrv);
  EXPECT_EQ(tape.scrub.MeanDetectionLatency(), offline.mdl);
  // Write-and-forget: no detection process at all.
  EXPECT_EQ(TapeSpec(cartridge, 0.0).scrub.kind, ScrubPolicy::Kind::kNone);
}

}  // namespace
}  // namespace longstore
