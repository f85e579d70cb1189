#include "src/drives/drive_specs.h"

#include <gtest/gtest.h>

#include "src/drives/cost_model.h"
#include "src/drives/offline_media.h"

namespace longstore {
namespace {

TEST(DriveSpecTest, CheetahMttfMatchesPaperMv) {
  // §5.4 uses MV = 1.4e6 hours for the Cheetah; the §6.1 3%-in-5-years
  // figure reproduces it under the memoryless assumption.
  const DriveSpec cheetah = SeagateCheetah146Gb();
  EXPECT_NEAR(cheetah.Mttf().hours(), 1.4e6, 0.05e6);
}

TEST(DriveSpecTest, BarracudaMttfFollowsSevenPercent) {
  const DriveSpec barracuda = SeagateBarracuda200Gb();
  // -5y / ln(0.93) = 6.03e5 hours.
  EXPECT_NEAR(barracuda.Mttf().hours(), 6.03e5, 0.01e5);
  // Enterprise drive has roughly half the in-service fault probability.
  EXPECT_NEAR(SeagateCheetah146Gb().five_year_fault_probability /
                  barracuda.five_year_fault_probability,
              0.43, 0.02);
}

TEST(DriveSpecTest, FourteenFoldPriceGap) {
  // §6.1: "the Cheetah costs about 14 times as much per byte"
  const double ratio =
      SeagateCheetah146Gb().price_per_gb() / SeagateBarracuda200Gb().price_per_gb();
  EXPECT_NEAR(ratio, 14.4, 0.1);
}

TEST(DriveSpecTest, BitErrorsAtNinetyNinePercentIdle) {
  // §6.1: "the Barracuda will suffer about 8 ... irrecoverable bit errors"
  // over a 99%-idle 5-year life.
  const double barracuda_errors = ExpectedIrrecoverableBitErrors(
      SeagateBarracuda200Gb(), /*duty_cycle=*/0.01, Duration::Years(5.0));
  EXPECT_NEAR(barracuda_errors, 8.0, 0.5);
  // The paper reports "about 6" for the Cheetah; with the paper's own quoted
  // 300 MB/s and 1e-15 UBER the arithmetic gives ~3.8 (same order, same
  // conclusion). bench_drive_economics prints both.
  const double cheetah_errors = ExpectedIrrecoverableBitErrors(
      SeagateCheetah146Gb(), /*duty_cycle=*/0.01, Duration::Years(5.0));
  EXPECT_NEAR(cheetah_errors, 3.8, 0.3);
  EXPECT_LT(cheetah_errors, barracuda_errors);
}

TEST(DriveSpecTest, BitErrorScalingIsLinearInDuty) {
  const DriveSpec d = SeagateBarracuda200Gb();
  const double at_1pct = ExpectedIrrecoverableBitErrors(d, 0.01, Duration::Years(5.0));
  const double at_2pct = ExpectedIrrecoverableBitErrors(d, 0.02, Duration::Years(5.0));
  EXPECT_NEAR(at_2pct / at_1pct, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(ExpectedIrrecoverableBitErrors(d, 0.0, Duration::Years(5.0)), 0.0);
  EXPECT_THROW(ExpectedIrrecoverableBitErrors(d, 1.5, Duration::Years(5.0)),
               std::invalid_argument);
}

TEST(DriveSpecTest, BitErrorsPerFullRead) {
  // 200 GB at 1e-14 per bit: 1.6e13 bits read per full pass -> 0.016 errors.
  EXPECT_NEAR(BitErrorsPerFullRead(SeagateBarracuda200Gb()), 0.016, 1e-4);
}

TEST(DriveSpecTest, RebuildTimes) {
  // Cheetah at the quoted 300 MB/s: ~8.1 minutes for 146 GB.
  EXPECT_NEAR(SeagateCheetah146Gb().RebuildTime().minutes(), 8.1, 0.1);
  EXPECT_NEAR(SeagateBarracuda200Gb().RebuildTime().minutes(), 51.3, 0.5);
}

TEST(DriveSpecTest, CatalogContainsAllMediaClasses) {
  const auto& catalog = DriveCatalog();
  ASSERT_EQ(catalog.size(), 4u);
  bool has_consumer = false;
  bool has_enterprise = false;
  bool has_tape = false;
  bool has_etched = false;
  for (const DriveSpec& d : catalog) {
    has_consumer |= d.media == MediaClass::kConsumerDisk;
    has_enterprise |= d.media == MediaClass::kEnterpriseDisk;
    has_tape |= d.media == MediaClass::kTapeCartridge;
    has_etched |= d.media == MediaClass::kEtchedMedium;
  }
  EXPECT_TRUE(has_consumer);
  EXPECT_TRUE(has_enterprise);
  EXPECT_TRUE(has_tape);
  EXPECT_TRUE(has_etched);
}

TEST(DriveSpecTest, OfflineMediaClassification) {
  EXPECT_FALSE(IsOfflineMedia(MediaClass::kConsumerDisk));
  EXPECT_FALSE(IsOfflineMedia(MediaClass::kEnterpriseDisk));
  EXPECT_TRUE(IsOfflineMedia(MediaClass::kTapeCartridge));
  EXPECT_TRUE(IsOfflineMedia(MediaClass::kEtchedMedium));
}

TEST(DriveSpecTest, GigayearDiscIsFiniteButFarBetter) {
  const DriveSpec g = GigayearEtchedDisc();
  // MTTF stays finite (the frontier's loss math must never hit an exact
  // zero), but sits orders of magnitude above every 2005 catalog part.
  EXPECT_FALSE(g.Mttf().is_infinite());
  EXPECT_GT(g.Mttf().hours(), 100.0 * SeagateCheetah146Gb().Mttf().hours());
  EXPECT_GT(MissionLossProbability(g.Mttf(), Duration::Years(50.0)), 0.0);
}

TEST(CostModelTest, UnitsForArchiveRoundsUp) {
  const DriveSpec d = SeagateCheetah146Gb();
  EXPECT_EQ(UnitsForArchive(d, 100.0), 1);
  EXPECT_EQ(UnitsForArchive(d, 146.0), 1);
  EXPECT_EQ(UnitsForArchive(d, 147.0), 2);
  EXPECT_EQ(UnitsForArchive(d, 1000.0), 7);
  EXPECT_THROW(UnitsForArchive(d, 0.0), std::invalid_argument);
}

TEST(CostModelTest, DiskCostsIncludePowerAdminSpace) {
  const CostAssumptions assumptions = CostAssumptions::Defaults();
  const ReplicaCostBreakdown cost =
      AnnualReplicaCost(SeagateBarracuda200Gb(), 1000.0, 12.0, assumptions);
  // 5 drives: capex = 5 * $114 / 5y = $114/y.
  EXPECT_NEAR(cost.capex_per_year, 114.0, 0.5);
  EXPECT_GT(cost.power_per_year, 0.0);
  EXPECT_GT(cost.admin_per_year, 0.0);
  EXPECT_GT(cost.space_per_year, 0.0);
  EXPECT_NEAR(cost.audit_per_year, 5 * 12.0 * assumptions.online_audit_usd_per_drive,
              1e-9);
  EXPECT_NEAR(cost.total_per_year(),
              cost.capex_per_year + cost.power_per_year + cost.admin_per_year +
                  cost.space_per_year + cost.audit_per_year,
              1e-9);
}

TEST(CostModelTest, TapePaysPerAuditHandling) {
  const CostAssumptions assumptions = CostAssumptions::Defaults();
  const DriveSpec tape = Lto3TapeCartridge();
  const ReplicaCostBreakdown rare = AnnualReplicaCost(tape, 1000.0, 1.0, assumptions);
  const ReplicaCostBreakdown frequent =
      AnnualReplicaCost(tape, 1000.0, 12.0, assumptions);
  EXPECT_DOUBLE_EQ(rare.power_per_year, 0.0);
  EXPECT_DOUBLE_EQ(rare.admin_per_year, 0.0);
  // Audit cost scales linearly and dominates at monthly audits.
  EXPECT_NEAR(frequent.audit_per_year / rare.audit_per_year, 12.0, 1e-9);
  EXPECT_GT(frequent.audit_per_year, frequent.capex_per_year);
}

TEST(CostModelTest, OnlineAuditsAreCheapOfflineAuditsAreNot) {
  // §6.2's core economic claim at equal audit frequency.
  const CostAssumptions assumptions = CostAssumptions::Defaults();
  const ReplicaCostBreakdown disk =
      AnnualReplicaCost(SeagateBarracuda200Gb(), 1000.0, 12.0, assumptions);
  const ReplicaCostBreakdown tape =
      AnnualReplicaCost(Lto3TapeCartridge(), 1000.0, 12.0, assumptions);
  EXPECT_LT(disk.audit_per_year, tape.audit_per_year / 10.0);
}

TEST(CostModelTest, SystemCostScalesWithReplicas) {
  const CostAssumptions assumptions = CostAssumptions::Defaults();
  const double one =
      AnnualSystemCost(SeagateBarracuda200Gb(), 1000.0, 1, 12.0, assumptions);
  const double three =
      AnnualSystemCost(SeagateBarracuda200Gb(), 1000.0, 3, 12.0, assumptions);
  EXPECT_NEAR(three / one, 3.0, 1e-9);
  EXPECT_THROW(AnnualSystemCost(SeagateBarracuda200Gb(), 1000.0, 0, 12.0, assumptions),
               std::invalid_argument);
}

TEST(CostModelTest, ConsumerReplicasBeatOneEnterpriseCopyPerDollar) {
  // §6.1's conclusion: several consumer replicas cost less than the 14x
  // enterprise premium would suggest.
  const CostAssumptions assumptions = CostAssumptions::Defaults();
  const double three_consumer =
      AnnualSystemCost(SeagateBarracuda200Gb(), 1000.0, 3, 12.0, assumptions);
  const double one_enterprise =
      AnnualSystemCost(SeagateCheetah146Gb(), 1000.0, 1, 12.0, assumptions);
  EXPECT_LT(three_consumer, one_enterprise);
}

TEST(OfflineMediaTest, OnlineParamsDeriveFromSpecAndScrub) {
  const FaultParams p =
      OnlineReplicaParams(SeagateCheetah146Gb(), ScrubPolicy::PeriodicPerYear(3.0));
  EXPECT_NEAR(p.mv.hours(), 1.44e6, 0.01e6);
  EXPECT_NEAR(p.ml.hours() * 5.0, p.mv.hours(), 1.0);
  EXPECT_NEAR(p.mdl.hours(), 1460.0, 0.5);
  EXPECT_NEAR(p.mrv.minutes(), 8.1, 0.1);
  EXPECT_FALSE(p.Validate().has_value());
}

TEST(OfflineMediaTest, AuditsInjectHandlingFaults) {
  const OfflineHandlingModel handling = OfflineHandlingModel::Defaults();
  const DriveSpec tape = Lto3TapeCartridge();
  const FaultParams no_audits = OfflineReplicaParams(tape, 0.0, handling);
  const FaultParams monthly = OfflineReplicaParams(tape, 12.0, handling);
  // Each handling round-trip risks damaging the medium: MV drops.
  EXPECT_LT(monthly.mv.hours(), no_audits.mv.hours());
  EXPECT_TRUE(no_audits.mdl.is_infinite());
  EXPECT_NEAR(monthly.mdl.hours(), Duration::Years(1.0 / 12.0).hours() / 2.0, 0.5);
}

TEST(OfflineMediaTest, RepairPaysRetrievalAndMount) {
  const OfflineHandlingModel handling = OfflineHandlingModel::Defaults();
  const FaultParams p = OfflineReplicaParams(Lto3TapeCartridge(), 4.0, handling);
  // 24 h retrieval + 10 min mount + 400 GB at 80 MB/s (~1.4 h).
  EXPECT_GT(p.mrv.hours(), 25.0);
  EXPECT_LT(p.mrv.hours(), 27.0);
  EXPECT_EQ(p.mrv.hours(), p.mrl.hours());
}

TEST(OfflineMediaTest, InvalidArgumentsThrow) {
  const OfflineHandlingModel handling = OfflineHandlingModel::Defaults();
  EXPECT_THROW(OfflineReplicaParams(Lto3TapeCartridge(), -1.0, handling),
               std::invalid_argument);
}

}  // namespace
}  // namespace longstore
