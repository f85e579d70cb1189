#include "src/model/replica_ctmc.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "src/model/paper_model.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/scenario/scenario_ctmc.h"

namespace longstore {
namespace {

FaultParams ScrubbedCheetah() {
  return ApplyScrubPolicy(FaultParams::PaperCheetahExample(),
                          ScrubPolicy::PeriodicPerYear(3.0));
}

TEST(MirroredCtmcTest, PaperConventionMatchesEquation8InLinearRegime) {
  // With small windows, the exact chain and the paper's closed form agree to
  // first order in WOV/ML.
  const FaultParams p = ScrubbedCheetah();
  const auto ctmc = MirroredMttdl(p, RateConvention::kPaper);
  ASSERT_TRUE(ctmc.has_value());
  const double ratio = ctmc->hours() / MttdlClosedForm(p).hours();
  EXPECT_NEAR(ratio, 1.0, 0.02);
}

TEST(MirroredCtmcTest, PhysicalConventionHalvesPaperConvention) {
  // Two independent fault clocks double the first-fault rate; the loss
  // probability per window is unchanged, so MTTDL halves.
  const FaultParams p = ScrubbedCheetah();
  const auto paper = MirroredMttdl(p, RateConvention::kPaper);
  const auto physical = MirroredMttdl(p, RateConvention::kPhysical);
  ASSERT_TRUE(paper.has_value() && physical.has_value());
  EXPECT_NEAR(physical->hours() / paper->hours(), 0.5, 0.02);
}

TEST(MirroredCtmcTest, UnscrubbedExactValues) {
  // Hand-derived absorption times for the §5.4 unscrubbed example (MDL = ∞):
  // kPaper gives ~58.6 years (the paper's 32.0-year figure omits the wait for
  // the second fault), kPhysical ~42.6 years.
  const FaultParams p = FaultParams::PaperCheetahExample();
  const auto paper = MirroredMttdl(p, RateConvention::kPaper);
  const auto physical = MirroredMttdl(p, RateConvention::kPhysical);
  ASSERT_TRUE(paper.has_value() && physical.has_value());
  EXPECT_NEAR(paper->years(), 58.6, 0.6);
  EXPECT_NEAR(physical->years(), 42.6, 0.5);
}

TEST(MirroredCtmcTest, CorrelationReducesMttdl) {
  const FaultParams base = ScrubbedCheetah();
  const auto independent = MirroredMttdl(base, RateConvention::kPhysical);
  const auto correlated =
      MirroredMttdl(WithCorrelation(base, 0.1), RateConvention::kPhysical);
  ASSERT_TRUE(independent.has_value() && correlated.has_value());
  // In the latent-dominated regime MTTDL scales ~linearly with α.
  EXPECT_NEAR(correlated->hours() / independent->hours(), 0.1, 0.01);
}

TEST(MirroredCtmcTest, ScrubbingImprovesMttdlByOrdersOfMagnitude) {
  const FaultParams unscrubbed = FaultParams::PaperCheetahExample();
  const FaultParams scrubbed = ScrubbedCheetah();
  const double gain = MirroredMttdl(scrubbed, RateConvention::kPhysical)->hours() /
                      MirroredMttdl(unscrubbed, RateConvention::kPhysical)->hours();
  EXPECT_GT(gain, 50.0);  // paper: 32 y -> 6128 y is a ~190x gain
}

TEST(MirroredCtmcTest, InstantVisibleRepairLeavesOnlyLatentRisk) {
  FaultParams p = ScrubbedCheetah();
  p.mrv = Duration::Zero();
  const auto with_visible = MirroredMttdl(ScrubbedCheetah(), RateConvention::kPaper);
  const auto without_visible = MirroredMttdl(p, RateConvention::kPaper);
  ASSERT_TRUE(with_visible.has_value() && without_visible.has_value());
  EXPECT_GT(without_visible->hours(), with_visible->hours());
}

TEST(MirroredCtmcTest, HarmlessFaultsMakeLossUnreachable) {
  // Instant repair of visible faults and instant detection+repair of latent
  // faults: no window ever opens.
  FaultParams p = FaultParams::PaperCheetahExample();
  p.mrv = Duration::Zero();
  p.mrl = Duration::Zero();
  p.mdl = Duration::Zero();
  const auto mttdl = MirroredMttdl(p, RateConvention::kPhysical);
  ASSERT_TRUE(mttdl.has_value());
  EXPECT_TRUE(mttdl->is_infinite());
}

TEST(MirroredCtmcTest, LossProbabilityMatchesExponentialApproximation) {
  const FaultParams p = ScrubbedCheetah();
  const auto mttdl = MirroredMttdl(p, RateConvention::kPhysical);
  const auto loss = MirroredLossProbability(p, Duration::Years(50.0),
                                            RateConvention::kPhysical);
  ASSERT_TRUE(mttdl.has_value() && loss.has_value());
  const double expected = 1.0 - std::exp(-(Duration::Years(50.0) / *mttdl));
  EXPECT_NEAR(*loss / expected, 1.0, 1e-2);
}

TEST(MirroredCtmcTest, LossPathBreakdownSumsToOne) {
  for (auto convention : {RateConvention::kPaper, RateConvention::kPhysical}) {
    const auto breakdown =
        MirroredLossPathBreakdown(ScrubbedCheetah(), convention);
    ASSERT_TRUE(breakdown.has_value());
    EXPECT_NEAR(breakdown->from_visible_window + breakdown->from_latent_window, 1.0,
                1e-9);
    // Latent faults are five times as frequent and carry a vastly longer
    // window; they dominate the loss paths.
    EXPECT_GT(breakdown->from_latent_window, 0.95);
  }
}

// The mirrored API is the r-way chain at r = 2, so a system has one exact
// answer: the mirrored functions and the Scenario CTMC of the same two-replica
// scenario agree to the last bit. A Scenario is always physical; the
// chain's kPaper answers are covered by the cases around this one.
TEST(ReplicatedChainTest, MirroredPairIsTheScenarioChainBitForBit) {
  const FaultParams unscrubbed = FaultParams::PaperCheetahExample();
  const FaultParams scrubbed = ScrubbedCheetah();
  const FaultParams correlated = WithCorrelation(scrubbed, 0.1);
  const Duration mission = Duration::Years(50.0);
  for (const FaultParams& p : {unscrubbed, scrubbed, correlated}) {
    SCOPED_TRACE("alpha " + std::to_string(p.alpha) + ", MDL " +
                 std::to_string(p.mdl.hours()) + " h");
    const Scenario scenario =
        ScenarioBuilder().Replicas(2, SpecFromParams(p)).Correlation(p.alpha).Build();
    const auto mirrored_mttdl = MirroredMttdl(p, RateConvention::kPhysical);
    const auto scenario_mttdl = ScenarioCtmcMttdl(scenario);
    ASSERT_TRUE(mirrored_mttdl.has_value() && scenario_mttdl.has_value());
    EXPECT_EQ(mirrored_mttdl->hours(), scenario_mttdl->hours());
    const auto mirrored_loss =
        MirroredLossProbability(p, mission, RateConvention::kPhysical);
    const auto scenario_loss = ScenarioCtmcLossProbability(scenario, mission);
    ASSERT_TRUE(mirrored_loss.has_value() && scenario_loss.has_value());
    EXPECT_EQ(*mirrored_loss, *scenario_loss);
  }
}

TEST(ReplicatedChainTest, PaperConventionConvergesToEquation12) {
  // Visible-only faults, serial repair, overlapping windows: eq 12's setting.
  FaultParams p;
  p.mv = Duration::Hours(1.4e6);
  p.ml = Duration::Hours(1e30);
  p.mrv = Duration::Minutes(20.0);
  p.mrl = Duration::Zero();
  p.mdl = Duration::Zero();
  for (int r = 2; r <= 5; ++r) {
    for (double alpha : {1.0, 0.1, 0.01}) {
      p.alpha = alpha;
      const ReplicatedChainBuilder builder(p, r, RateConvention::kPaper);
      const auto ctmc = builder.Mttdl();
      ASSERT_TRUE(ctmc.has_value());
      const double eq12 = MttdlReplicated(p, r).hours();
      EXPECT_NEAR(ctmc->hours() / eq12, 1.0, 0.01)
          << "r=" << r << " alpha=" << alpha;
    }
  }
}

TEST(ReplicatedChainTest, MttdlGrowsGeometricallyWithReplicas) {
  const FaultParams p = ScrubbedCheetah();
  double previous = 0.0;
  for (int r = 1; r <= 5; ++r) {
    const ReplicatedChainBuilder builder(p, r, RateConvention::kPhysical);
    const double mttdl = builder.Mttdl()->hours();
    EXPECT_GT(mttdl, previous) << "r=" << r;
    if (r >= 2) {
      EXPECT_GT(mttdl, previous * 10.0) << "r=" << r;
    }
    previous = mttdl;
  }
}

TEST(ReplicatedChainTest, CorrelationErodesReplicationGains) {
  // §5.5: α ≪ 1 geometrically offsets the gains from additional replicas.
  FaultParams p = ScrubbedCheetah();
  const ReplicatedChainBuilder independent3(p, 3, RateConvention::kPhysical);
  p.alpha = 0.01;
  const ReplicatedChainBuilder correlated3(p, 3, RateConvention::kPhysical);
  const double erosion =
      correlated3.Mttdl()->hours() / independent3.Mttdl()->hours();
  // Two extra windows, each accelerated 100x: expect ~1e-4.
  EXPECT_LT(erosion, 1e-3);
  EXPECT_GT(erosion, 1e-5);
}

TEST(ReplicatedChainTest, SingleReplicaIsFirstFaultTime) {
  const FaultParams p = ScrubbedCheetah();
  const ReplicatedChainBuilder builder(p, 1, RateConvention::kPhysical);
  const double rate = 1.0 / p.mv.hours() + 1.0 / p.ml.hours();
  EXPECT_NEAR(builder.Mttdl()->hours(), 1.0 / rate, 1.0);
}

TEST(ReplicatedChainTest, LossProbabilityIsMonotoneInMission) {
  const FaultParams p = ScrubbedCheetah();
  const ReplicatedChainBuilder builder(p, 2, RateConvention::kPhysical);
  double previous = 0.0;
  for (double years : {1.0, 10.0, 50.0, 200.0}) {
    const auto loss = builder.LossProbability(Duration::Years(years));
    ASSERT_TRUE(loss.has_value());
    EXPECT_GE(*loss, previous);
    EXPECT_GE(*loss, 0.0);
    EXPECT_LE(*loss, 1.0);
    previous = *loss;
  }
}

TEST(ReplicatedChainTest, StateCountGrowsCubically) {
  const FaultParams p = ScrubbedCheetah();
  const ReplicatedChainBuilder r2(p, 2, RateConvention::kPhysical);
  const ReplicatedChainBuilder r5(p, 5, RateConvention::kPhysical);
  EXPECT_EQ(r2.state_count(), 6);   // 4 transient + 2 loss
  EXPECT_GT(r5.state_count(), 30);
}

TEST(ReplicatedChainTest, LossPathsSumToOneAndLatentShareGrowsWithMdl) {
  // Beyond the pair, a loss is on the latent path whenever some faulty
  // replica carries a latent fault; slower detection keeps more of them
  // outstanding.
  double previous_latent = 0.0;
  for (double mdl_hours : {100.0, 1000.0, 10000.0}) {
    FaultParams p = ScrubbedCheetah();
    p.mdl = Duration::Hours(mdl_hours);
    const auto paths = ReplicatedChainBuilder(p, 3, RateConvention::kPhysical).LossPaths();
    ASSERT_TRUE(paths.has_value());
    EXPECT_NEAR(paths->from_visible_window + paths->from_latent_window, 1.0, 1e-9)
        << "MDL " << mdl_hours << " h";
    EXPECT_GT(paths->from_latent_window, previous_latent) << "MDL " << mdl_hours << " h";
    previous_latent = paths->from_latent_window;
  }
}

TEST(ReplicatedChainTest, InvalidArgumentsThrow) {
  EXPECT_THROW(ReplicatedChainBuilder(ScrubbedCheetah(), 0, RateConvention::kPaper),
               std::invalid_argument);
  FaultParams bad = ScrubbedCheetah();
  bad.alpha = -1.0;
  EXPECT_THROW(ReplicatedChainBuilder(bad, 2, RateConvention::kPaper),
               std::invalid_argument);
}

}  // namespace
}  // namespace longstore
