#include "src/sweep/sweep.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace longstore {
namespace {

// Parameters chosen so trials finish in microseconds but all machinery runs.
ReplicaSpec FastReplica() {
  return ReplicaSpec()
      .FaultTimes(Duration::Hours(1000.0), Duration::Hours(500.0))
      .RepairTimes(Duration::Hours(50.0), Duration::Hours(50.0))
      .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(100.0)));
}

Scenario FastScenario() { return ScenarioBuilder().Replicas(2, FastReplica()).Build(); }

// Adaptive stopping on a one-cell kSharedRoot sweep, so trial k draws from
// DeriveSeed(mc.seed, k) exactly as in EstimateMttdl.
MttdlEstimate EstimateToPrecision(const McConfig& mc, double relative_precision,
                                  int64_t max_trials) {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.adaptive = true;
  options.relative_precision = relative_precision;
  options.max_trials = max_trials;
  options.mc = mc;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  return *SweepRunner().Run(SweepSpec(FastScenario()), options).cells.front().mttdl;
}

// Mission-loss probability on a one-cell kSharedRoot sweep, so trial k draws
// from DeriveSeed(mc.seed, k) exactly as in EstimateMttdl.
LossProbabilityEstimate EstimateLoss(const Scenario& scenario, Duration mission,
                                     const McConfig& mc) {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = mission;
  options.mc = mc;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  return *SweepRunner().Run(SweepSpec(scenario), options).cells.front().loss;
}

TEST(MonteCarloTest, MttdlEstimateHasReasonableShape) {
  McConfig mc;
  mc.trials = 2000;
  mc.seed = 1;
  const MttdlEstimate estimate = EstimateMttdl(FastScenario(), mc);
  EXPECT_EQ(estimate.loss_time_years.count() + estimate.censored_trials, 2000);
  EXPECT_EQ(estimate.censored_trials, 0);
  EXPECT_GT(estimate.mean_years(), 0.0);
  EXPECT_TRUE(estimate.ci_years.Contains(estimate.mean_years()));
  EXPECT_GT(estimate.aggregate_metrics.visible_faults, 0);
  EXPECT_GT(estimate.aggregate_metrics.latent_faults, 0);
}

TEST(MonteCarloTest, ResultsIndependentOfPoolSize) {
  SweepOptions options;
  options.mc.trials = 500;
  options.mc.seed = 77;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  WorkerPool one_lane(1);
  WorkerPool four_lanes(4);
  const MttdlEstimate a =
      *SweepRunner(&one_lane).Run(SweepSpec(FastScenario()), options).cells[0].mttdl;
  const MttdlEstimate b =
      *SweepRunner(&four_lanes).Run(SweepSpec(FastScenario()), options).cells[0].mttdl;
  EXPECT_DOUBLE_EQ(a.mean_years(), b.mean_years());
  EXPECT_EQ(a.aggregate_metrics.visible_faults, b.aggregate_metrics.visible_faults);
  EXPECT_EQ(a.aggregate_metrics.latent_faults, b.aggregate_metrics.latent_faults);
}

TEST(MonteCarloTest, SeedChangesEstimate) {
  McConfig mc;
  mc.trials = 300;
  mc.seed = 1;
  const double a = EstimateMttdl(FastScenario(), mc).mean_years();
  mc.seed = 2;
  const double b = EstimateMttdl(FastScenario(), mc).mean_years();
  EXPECT_NE(a, b);
}

TEST(MonteCarloTest, CensoringCapsTrialTime) {
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(2, FastReplica().FaultTimes(Duration::Hours(1e12),
                                                Duration::Hours(1e12)))
          .Build();
  McConfig mc;
  mc.trials = 50;
  mc.max_trial_time = Duration::Years(10.0);
  const MttdlEstimate estimate = EstimateMttdl(scenario, mc);
  EXPECT_EQ(estimate.censored_trials, 50);
  EXPECT_EQ(estimate.loss_time_years.count(), 0);
}

TEST(MonteCarloTest, LossProbabilityMatchesMttdlExponential) {
  // With exponential-ish loss times, P(loss by T) ~ 1 - exp(-T / MTTDL).
  const Scenario scenario = FastScenario();
  McConfig mc;
  mc.trials = 4000;
  mc.seed = 5;
  const MttdlEstimate mttdl = EstimateMttdl(scenario, mc);
  const Duration mission = Duration::Years(mttdl.mean_years() / 2.0);
  const LossProbabilityEstimate loss = EstimateLoss(scenario, mission, mc);
  const double expected = 1.0 - std::exp(-(mission.years() / mttdl.mean_years()));
  EXPECT_NEAR(loss.probability(), expected, 0.04);
  EXPECT_TRUE(loss.wilson_ci.Contains(loss.probability()));
  EXPECT_EQ(loss.trials, 4000);
}

TEST(MonteCarloTest, LossProbabilityRejectsBadMission) {
  McConfig mc;
  mc.trials = 10;
  for (const Duration mission : {Duration::Zero(), Duration::Infinite()}) {
    try {
      EstimateLoss(FastScenario(), mission, mc);
      FAIL() << "accepted a " << mission.hours() << " h mission";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "SweepOptions: mission must be positive finite");
    }
  }
}

TEST(MonteCarloTest, MttdlRejectsBadMaxTrialTime) {
  // A zero or negative cap censored every trial at time zero; a NaN or
  // infinite one removed the cap, so each trial ran to loss unbounded.
  McConfig mc;
  mc.trials = 10;
  for (const double hours : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    mc.max_trial_time = Duration::Hours(hours);
    try {
      EstimateMttdl(FastScenario(), mc);
      FAIL() << "accepted a " << hours << " h max_trial_time";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "SweepOptions: max_trial_time must be positive finite");
    }
  }
}

TEST(MonteCarloTest, RejectsConfidenceOutsideTheOpenUnitInterval) {
  // Checked before any trial runs: the interval code's own check fired only
  // once every trial had been simulated, and a NaN passed it.
  McConfig mc;
  mc.trials = 10;
  for (const double confidence :
       {0.0, 1.0, 1.5, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
    mc.confidence = confidence;
    try {
      EstimateMttdl(FastScenario(), mc);
      FAIL() << "MTTDL accepted confidence " << confidence;
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "SweepOptions: confidence must lie in (0, 1)");
    }
    try {
      EstimateLoss(FastScenario(), Duration::Years(1.0), mc);
      FAIL() << "loss probability accepted confidence " << confidence;
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "SweepOptions: confidence must lie in (0, 1)");
    }
  }
}

TEST(MonteCarloTest, RejectsNonPositiveTrials) {
  McConfig mc;
  mc.trials = 0;
  EXPECT_THROW(EstimateMttdl(FastScenario(), mc), std::invalid_argument);
}

TEST(MonteCarloTest, RejectsInvalidConfig) {
  Scenario scenario = FastScenario();
  scenario.replicas.clear();
  McConfig mc;
  mc.trials = 10;
  EXPECT_THROW(EstimateMttdl(scenario, mc), std::invalid_argument);
}

TEST(MonteCarloTest, PrecisionDrivenEstimateTightensCi) {
  McConfig mc;
  mc.trials = 100;
  mc.seed = 9;
  const MttdlEstimate estimate =
      EstimateToPrecision(mc, /*relative_precision=*/0.05, /*max_trials=*/20000);
  const double half_width = (estimate.ci_years.hi - estimate.ci_years.lo) / 2.0;
  EXPECT_LE(half_width / estimate.mean_years(), 0.05);
}

TEST(MonteCarloTest, PrecisionRunRespectsMaxTrials) {
  McConfig mc;
  mc.trials = 50;
  mc.seed = 10;
  const MttdlEstimate estimate =
      EstimateToPrecision(mc, /*relative_precision=*/1e-6, /*max_trials=*/200);
  EXPECT_LE(estimate.loss_time_years.count(), 200);
  EXPECT_THROW(EstimateToPrecision(mc, 0.0, 100), std::invalid_argument);
}

}  // namespace
}  // namespace longstore
