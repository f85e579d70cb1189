// Scenario <-> engine integration: heterogeneous-fleet behavior, the CTMC
// bridge, JSON-round-trip trial-stream determinism, and scenario-native
// sweeps (per-replica axes, content-derived cell seeds).

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "src/rare/rare_event.h"
#include "src/scenario/media.h"
#include "src/scenario/scenario.h"
#include "src/scenario/scenario_ctmc.h"
#include "src/storage/replicated_system.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

// Fast-turnover homogeneous mirrored pair.
Scenario FastScenario() {
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .FaultTimes(Duration::Hours(500.0), Duration::Hours(250.0))
                       .RepairTimes(Duration::Hours(20.0), Duration::Hours(20.0))
                       .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(50.0))))
      .Build();
}

// Trial-stream fingerprint: loss times (or censor markers) for a run of
// seeds. Bitwise-equal fingerprints mean bitwise-equal engine behavior.
std::vector<double> Fingerprint(TrialRunner& runner, int trials, Duration horizon) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    const RunOutcome outcome = runner.Run(DeriveSeed(123, t), horizon);
    out.push_back(outcome.loss_time ? outcome.loss_time->hours() : -1.0);
  }
  return out;
}

TEST(ScenarioEngineTest, JsonRoundTripPreservesTrialStreams) {
  const Scenario scenario =
      ScenarioBuilder()
          .AddReplica(ReplicaSpec()
                          .Media("disk")
                          .FaultTimes(Duration::Hours(500.0), Duration::Hours(250.0))
                          .RepairTimes(Duration::Hours(20.0), Duration::Hours(20.0))
                          .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(50.0))))
          .AddReplica(ReplicaSpec()
                          .Media("old tape")
                          .FaultTimes(Duration::Hours(900.0), Duration::Hours(300.0))
                          .RepairTimes(Duration::Hours(48.0), Duration::Hours(48.0))
                          .Weibull(2.0)
                          .InitialAge(Duration::Hours(1000.0))
                          .ScrubEvery(Duration::Hours(700.0)))
          .Build();
  const Scenario shipped = Scenario::FromJson(scenario.ToJson());
  EXPECT_EQ(shipped.CanonicalHash(), scenario.CanonicalHash());

  TrialRunner original(scenario);
  TrialRunner remote(shipped);
  const Duration horizon = Duration::Hours(30000.0);
  EXPECT_EQ(Fingerprint(original, 50, horizon), Fingerprint(remote, 50, horizon));
}

TEST(ScenarioEngineTest, PerReplicaScrubPoliciesActIndependently) {
  // Replica 0 is scrubbed aggressively; replica 1 never. With only latent
  // faults and no repair on unscrubbed faults, every detection must come
  // from replica 0's policy.
  const Scenario scenario =
      ScenarioBuilder()
          .AddReplica(ReplicaSpec()
                          .FaultTimes(Duration::Infinite(), Duration::Hours(100.0))
                          .RepairTimes(Duration::Zero(), Duration::Hours(1.0))
                          .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(10.0))))
          .AddReplica(ReplicaSpec()
                          .FaultTimes(Duration::Infinite(), Duration::Hours(100.0))
                          .RepairTimes(Duration::Zero(), Duration::Hours(1.0)))
          .AddReplica(ReplicaSpec().FaultTimes(Duration::Infinite(),
                                               Duration::Infinite()))
          .Build();
  TrialRunner runner(scenario);
  int64_t detections = 0;
  int64_t latents = 0;
  for (int t = 0; t < 30; ++t) {
    const RunOutcome outcome = runner.Run(DeriveSeed(9, t), Duration::Hours(5000.0));
    detections += outcome.metrics.latent_detections;
    latents += outcome.metrics.latent_faults;
  }
  EXPECT_GT(latents, 0);
  EXPECT_GT(detections, 0);
  // Replica 1's faults are never detected, so detections must stay well
  // under the (roughly evenly split) latent fault count.
  EXPECT_LT(detections, latents);
}

TEST(ScenarioEngineTest, MixedDistributionFleetRuns) {
  // One memoryless disk + one wearing-out tape: a fleet no single shared
  // distribution/shape can describe.
  const Scenario scenario =
      ScenarioBuilder()
          .AddReplica(ReplicaSpec()
                          .FaultTimes(Duration::Hours(800.0), Duration::Infinite())
                          .RepairTimes(Duration::Hours(10.0), Duration::Zero()))
          .AddReplica(ReplicaSpec()
                          .FaultTimes(Duration::Hours(800.0), Duration::Infinite())
                          .RepairTimes(Duration::Hours(10.0), Duration::Zero())
                          .Weibull(4.0)
                          .InitialAge(Duration::Hours(700.0)))
          .Build();
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Hours(2000.0);
  options.mc.trials = 300;
  options.mc.seed = 5;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const LossProbabilityEstimate loss =
      *SweepRunner().Run(SweepSpec(scenario), options).cells.front().loss;
  EXPECT_GT(loss.losses, 0);
  EXPECT_LT(loss.losses, loss.trials);
}

TEST(ScenarioCtmcTest, AgreesWithSimulationWhereItApplies) {
  // Homogeneous, memoryless — the CTMC's home turf. Simulated MTTDL must
  // land near the exact answer.
  const Scenario scenario = FastScenario();
  ASSERT_EQ(CtmcIncompatibility(scenario), std::nullopt);
  const auto exact = ScenarioCtmcMttdl(scenario);
  ASSERT_TRUE(exact.has_value());

  McConfig mc;
  mc.trials = 4000;
  mc.seed = 11;
  const MttdlEstimate sim = EstimateMttdl(scenario, mc);
  EXPECT_NEAR(sim.mean_years(), exact->years(), 0.15 * exact->years());
}

TEST(ScenarioCtmcTest, RejectsWithPreciseReasons) {
  const auto incompat = [](const Scenario& s) {
    const auto reason = CtmcIncompatibility(s);
    return reason.value_or("(accepted)");
  };

  Scenario heterogeneous = FastScenario();
  heterogeneous.replicas[1].mv = Duration::Hours(123.0);
  EXPECT_NE(incompat(heterogeneous).find("replica 1 differs from replica 0 in mv"),
            std::string::npos);

  Scenario weibull = FastScenario();
  for (ReplicaSpec& spec : weibull.replicas) {
    spec.Weibull(2.0);
  }
  EXPECT_NE(incompat(weibull).find("age-dependent"), std::string::npos);

  Scenario deterministic = FastScenario();
  for (ReplicaSpec& spec : deterministic.replicas) {
    spec.DeterministicRepair();
  }
  EXPECT_NE(incompat(deterministic).find("deterministic repair"), std::string::npos);

  Scenario periodic = FastScenario();
  for (ReplicaSpec& spec : periodic.replicas) {
    spec.ScrubEvery(Duration::Hours(50.0));
  }
  EXPECT_NE(incompat(periodic).find("periodic scrubbing"), std::string::npos);

  Scenario common = FastScenario();
  CommonModeSource source;
  source.name = "rack";
  source.event_rate = Rate::PerYear(1.0);
  source.members = {0, 1};
  common.common_mode.push_back(source);
  EXPECT_NE(incompat(common).find("common-mode"), std::string::npos);

  EXPECT_THROW(ScenarioCtmcMttdl(heterogeneous), std::invalid_argument);
}

TEST(ScenarioSweepTest, AxesMutateIndividualReplicas) {
  // The axis sweeps only replica 1's scrub cadence — a per-replica knob no
  // fleet-wide setting provides. More frequent auditing of the latent-prone
  // replica must not hurt (and generally helps) MTTDL.
  SweepSpec spec(FastScenario());
  spec.AddAxis("replica-1 scrub");
  for (const double hours : {10.0, 1000.0}) {
    spec.AddPoint("scrub=" + std::to_string(hours), hours, [hours](Scenario& s) {
      s.replicas[1].ScrubWith(ScrubPolicy::Exponential(Duration::Hours(hours)));
    });
  }
  SweepOptions options;
  options.mc.trials = 1500;
  options.mc.seed = 21;
  const SweepResult result = SweepRunner().Run(spec, options);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_GT(result.cells[0].mttdl->mean_years(),
            result.cells[1].mttdl->mean_years());
}

TEST(ScenarioSweepTest, ScenarioDerivedSeedsFollowContentNotLabels) {
  // Same scenario content under different labels and cell order: with
  // kScenarioDerived seeds the estimates are identical cell-for-cell —
  // exactly what a sharded fan-out needs after shipping scenarios as JSON.
  const Scenario a = FastScenario();
  Scenario b = a;
  b.replicas[0].mv = Duration::Hours(700.0);
  b.replicas[1].mv = Duration::Hours(700.0);

  SweepSpec here;
  here.AddCell("a", a);
  here.AddCell("b", b);

  SweepSpec shard;  // reversed order, different labels, JSON round-trip
  shard.AddCell("cell-1", Scenario::FromJson(b.ToJson()));
  shard.AddCell("cell-0", Scenario::FromJson(a.ToJson()));

  SweepOptions options;
  options.seed_mode = SweepOptions::SeedMode::kScenarioDerived;
  options.mc.trials = 600;
  options.mc.seed = 99;
  const SweepResult local = SweepRunner().Run(here, options);
  const SweepResult remote = SweepRunner().Run(shard, options);

  EXPECT_EQ(local.ByLabel("a").mttdl->mean_years(),
            remote.ByLabel("cell-0").mttdl->mean_years());
  EXPECT_EQ(local.ByLabel("b").mttdl->mean_years(),
            remote.ByLabel("cell-1").mttdl->mean_years());
  // And the two scenarios genuinely differ.
  EXPECT_NE(local.ByLabel("a").mttdl->mean_years(),
            local.ByLabel("b").mttdl->mean_years());
}

TEST(ScenarioSweepTest, HeterogeneousCellValidationNamesScenario) {
  SweepSpec spec;
  Scenario bad = FastScenario();
  bad.required_intact = 7;
  spec.AddCell("bad", bad);
  SweepOptions options;
  try {
    SweepRunner().Run(spec, options);
    FAIL() << "expected validation failure";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("Scenario: required_intact"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("cell 'bad'"), std::string::npos);
  }
}

TEST(ScenarioRareTest, ImportanceSamplingAcceptsHeterogeneousScenarios) {
  // A rare-loss heterogeneous pair: IS with an explicit modest bias must
  // produce a weighted estimate with hits and finite diagnostics.
  const Scenario scenario =
      ScenarioBuilder()
          .AddReplica(ReplicaSpec()
                          .FaultTimes(Duration::Hours(6000.0), Duration::Infinite())
                          .RepairTimes(Duration::Hours(2.0), Duration::Zero()))
          .AddReplica(ReplicaSpec()
                          .FaultTimes(Duration::Hours(9000.0), Duration::Infinite())
                          .RepairTimes(Duration::Hours(3.0), Duration::Zero()))
          .Build();
  // (Declared here to keep the test self-contained; see rare_event_test.cc
  // for the estimator's statistical validation.)
  McConfig mc;
  mc.trials = 3000;
  mc.seed = 17;
  IsOptions options;
  FaultBias bias;
  bias.theta_visible = 16.0;
  bias.force_probability = 0.5;
  options.bias = bias;
  const IsLossProbabilityEstimate estimate =
      EstimateLossProbabilityIS(scenario, Duration::Years(1.0), mc, options);
  EXPECT_GT(estimate.estimate.hits, 0);
  EXPECT_GT(estimate.probability(), 0.0);
  EXPECT_LT(estimate.probability(), 1e-2);
}

}  // namespace
}  // namespace longstore
