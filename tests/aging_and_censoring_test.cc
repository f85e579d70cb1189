// Tests for batch-aging (bathtub-curve fleets, §6.5) and the censored MTTDL
// estimator used in rare-event regimes.

#include <gtest/gtest.h>

#include "src/model/replica_ctmc.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

// A Weibull mirror whose replicas start at the given hardware ages (hours).
Scenario WeibullFleet(double shape, double first_age = 0.0, double second_age = 0.0) {
  const ReplicaSpec replica = ReplicaSpec()
                                  .FaultTimes(Duration::Hours(20000.0), Duration::Hours(1e12))
                                  .RepairTimes(Duration::Hours(100.0), Duration::Zero())
                                  .Weibull(shape);
  return ScenarioBuilder()
      .AddReplica(ReplicaSpec(replica).InitialAge(Duration::Hours(first_age)))
      .AddReplica(ReplicaSpec(replica).InitialAge(Duration::Hours(second_age)))
      .Build();
}

// The censored MLE over `window` on a one-cell kSharedRoot sweep, so trial k
// draws from DeriveSeed(mc.seed, k).
CensoredMttdlEstimate EstimateCensored(const Scenario& scenario, Duration window,
                                       const McConfig& mc) {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kCensoredMttdl;
  options.window = window;
  options.mc = mc;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  return *SweepRunner().Run(SweepSpec(scenario), options).cells.front().censored;
}

// Mission-loss probability on a one-cell kSharedRoot sweep.
LossProbabilityEstimate EstimateLoss(const Scenario& scenario, Duration mission,
                                     const McConfig& mc) {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = mission;
  options.mc = mc;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  return *SweepRunner().Run(SweepSpec(scenario), options).cells.front().loss;
}

TEST(AgingTest, InitialAgesValidated) {
  Scenario scenario = WeibullFleet(3.0);
  scenario.replicas[1].initial_age_hours = -5.0;
  EXPECT_TRUE(scenario.Validate().has_value());
  scenario.replicas[1].initial_age_hours = 10000.0;
  EXPECT_FALSE(scenario.Validate().has_value());
}

TEST(AgingTest, SameAgedBatchFailsSoonerThanStaggeredFleet) {
  // Wear-out (shape 3): a mirror whose drives are both near end-of-life sees
  // correlated wear-out mortality; a staggered fleet (rolling procurement)
  // rarely has both drives old at once. Compare loss counts over one year.
  const Duration mission = Duration::Years(1.0);
  McConfig mc;
  mc.trials = 4000;
  mc.seed = 5150;

  // Both near the mean life.
  const Scenario aged = WeibullFleet(3.0, 19000.0, 19000.0);
  const LossProbabilityEstimate batch = EstimateLoss(aged, mission, mc);

  // Rolling procurement.
  const Scenario staggered = WeibullFleet(3.0, 19000.0, 2000.0);
  const LossProbabilityEstimate rolling = EstimateLoss(staggered, mission, mc);

  EXPECT_GT(batch.probability(), rolling.probability() * 3.0)
      << "batch=" << batch.probability() << " rolling=" << rolling.probability();
}

TEST(AgingTest, ExponentialFleetsRejectInitialAges) {
  // Exponential faults are memoryless: an initial age could not matter, so
  // the estimators refuse it rather than silently ignore it.
  const Scenario aged =
      ScenarioBuilder()
          .Replicas(2, ReplicaSpec()
                           .FaultTimes(Duration::Hours(5000.0), Duration::Hours(1e12))
                           .RepairTimes(Duration::Hours(100.0), Duration::Zero())
                           .InitialAge(Duration::Hours(4000.0)))
          .Peek();
  McConfig mc;
  mc.trials = 2000;
  mc.seed = 31;
  EXPECT_THROW(EstimateLoss(aged, Duration::Years(2.0), mc), std::invalid_argument);
}

TEST(CensoredEstimatorTest, AgreesWithDirectEstimateAndCtmc) {
  FaultParams params;
  params.mv = Duration::Hours(2000.0);
  params.ml = Duration::Hours(400.0);
  params.mrv = Duration::Hours(2.0);
  params.mrl = Duration::Hours(2.0);
  params.mdl = Duration::Hours(40.0);
  const Scenario scenario = ScenarioBuilder().Replicas(2, SpecFromParams(params)).Build();

  const auto exact = MirroredMttdl(params, RateConvention::kPhysical);
  McConfig mc;
  mc.trials = 4000;
  mc.seed = 606;
  // Window ~ a tenth of the MTTDL: most trials censor, losses still number
  // in the hundreds.
  const Duration window = Duration::Hours(exact->hours() / 10.0);
  const CensoredMttdlEstimate estimate = EstimateCensored(scenario, window, mc);
  ASSERT_GT(estimate.losses, 100);
  // The censored MLE carries a small positive bias here: trials start from
  // the all-healthy state, so the early window under-produces losses
  // relative to a stationary exponential. ~380 losses give ~5% noise on top.
  EXPECT_NEAR(estimate.mttdl.hours() / exact->hours(), 1.0, 0.2);
  EXPECT_TRUE(estimate.ci_years.Contains(estimate.mttdl.years()));
}

TEST(CensoredEstimatorTest, ZeroLossesGiveRuleOfThreeBound) {
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(3, ReplicaSpec()
                           .FaultTimes(Duration::Hours(1e9), Duration::Hours(1e9))
                           .RepairTimes(Duration::Hours(1.0), Duration::Hours(1.0))
                           .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(100.0))))
          .Build();
  McConfig mc;
  mc.trials = 50;
  const Duration window = Duration::Years(10.0);
  const CensoredMttdlEstimate estimate = EstimateCensored(scenario, window, mc);
  EXPECT_EQ(estimate.losses, 0);
  EXPECT_TRUE(estimate.mttdl.is_infinite());
  EXPECT_NEAR(estimate.observed_years, 500.0, 1e-6);
  EXPECT_NEAR(estimate.ci_years.lo, 500.0 / 3.0, 1e-6);
}

TEST(CensoredEstimatorTest, ObservedTimeAccountsForEarlyLosses) {
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(2, ReplicaSpec()
                           .FaultTimes(Duration::Hours(100.0), Duration::Hours(1e12))
                           .RepairTimes(Duration::Hours(50.0), Duration::Zero()))
          .Build();
  McConfig mc;
  mc.trials = 200;
  mc.seed = 77;
  const Duration window = Duration::Years(50.0);
  const CensoredMttdlEstimate estimate = EstimateCensored(scenario, window, mc);
  EXPECT_GT(estimate.losses, 150);  // nearly every trial loses quickly
  EXPECT_LT(estimate.observed_years, 50.0 * 200.0);
}

TEST(CensoredEstimatorTest, RejectsBadWindow) {
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(2, ReplicaSpec().FaultTimes(Duration::Hours(100.0),
                                                Duration::Hours(100.0)))
          .Build();
  McConfig mc;
  mc.trials = 10;
  for (const Duration window : {Duration::Zero(), Duration::Infinite()}) {
    try {
      EstimateCensored(scenario, window, mc);
      FAIL() << "accepted a " << window.hours() << " h window";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "SweepOptions: window must be positive finite");
    }
  }
}

}  // namespace
}  // namespace longstore
