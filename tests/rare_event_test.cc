// The rare-event estimation contract (src/rare/):
//  * at the identity bias, the sampler path is bit-identical to the
//    unbiased engine for exponential and Weibull faults, with weight 1;
//  * the likelihood ratio is exact: mean trial weight converges to 1 under
//    any valid bias, for both fault families;
//  * the importance-sampled loss probability is unbiased: it covers the
//    analytic CTMC value on a calibration config;
//  * on a rare-loss config the weighted estimator needs far fewer trials
//    than naive Monte Carlo for the same CI (the 10x gate bench_rare_perf
//    enforces in CI is asserted here too);
//  * weighted sweep estimates obey the same bit-identical determinism
//    contract as every other estimand.

#include <cmath>

#include <gtest/gtest.h>

#include "src/model/replica_ctmc.h"
#include "src/rare/pinned_configs.h"
#include "src/rare/rare_event.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"
#include "src/util/stats.h"

namespace longstore {
namespace {

// A mirrored pair with `p`'s fault and repair times, audited exponentially
// with mean MDL — the process ReplicaCtmc solves exactly.
Scenario MirrorOf(const FaultParams& p) {
  return ScenarioBuilder().Replicas(2, SpecFromParams(p)).Correlation(p.alpha).Build();
}

// Calibration config: mission-loss probability ~6e-5 over one year: rare
// enough that naive MC at test-sized trial counts sees nothing, common
// enough that the exact value is cheap to pin.
FaultParams CalibrationParams() {
  FaultParams p;
  p.mv = Duration::Hours(1.0e6);
  p.ml = Duration::Hours(2.0e5);
  p.mrv = Duration::Hours(10.0);
  p.mrl = Duration::Hours(10.0);
  p.mdl = Duration::Hours(100.0);
  return p;
}

// The calibration repairs with fault times fast enough that short horizons
// see both censored and lossy trials.
FaultParams BusyParams(Duration mdl) {
  FaultParams p = CalibrationParams();
  p.mv = Duration::Hours(2000.0);
  p.ml = Duration::Hours(400.0);
  p.mdl = mdl;
  return p;
}

Scenario WeibullScenario() {
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .FaultTimes(Duration::Hours(2000.0), Duration::Hours(400.0))
                       .RepairTimes(Duration::Hours(2.0), Duration::Hours(2.0))
                       .Weibull(2.0)
                       .ScrubEvery(Duration::Hours(80.0))
                       .DeterministicRepair())
      .Build();
}

FaultBias LatentTilt(double theta, double force = 0.5) {
  FaultBias bias;
  bias.theta_latent = theta;
  bias.force_probability = force;
  return bias;
}

void ExpectBitIdenticalOutcome(const RunOutcome& a, const RunOutcome& b) {
  ASSERT_EQ(a.loss_time.has_value(), b.loss_time.has_value());
  if (a.loss_time) {
    EXPECT_EQ(a.loss_time->hours(), b.loss_time->hours());
  }
  EXPECT_EQ(a.metrics.visible_faults, b.metrics.visible_faults);
  EXPECT_EQ(a.metrics.latent_faults, b.metrics.latent_faults);
  EXPECT_EQ(a.metrics.latent_detections, b.metrics.latent_detections);
  EXPECT_EQ(a.metrics.repairs_completed, b.metrics.repairs_completed);
  EXPECT_EQ(a.metrics.detection_latency_hours.mean(),
            b.metrics.detection_latency_hours.mean());
}

void CheckZeroBiasBitIdentical(const Scenario& scenario, Duration horizon) {
  TrialRunner unbiased(scenario);
  TrialRunner identity(scenario, ConfigValidation::kValidate, FaultBias{});
  ASSERT_TRUE(FaultBias{}.is_identity());
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const RunOutcome a = unbiased.Run(seed, horizon);
    const RunOutcome b = identity.Run(seed, horizon);
    EXPECT_EQ(a.log_weight, 0.0);
    EXPECT_EQ(b.log_weight, 0.0);
    ExpectBitIdenticalOutcome(a, b);
  }
}

TEST(RareEventTest, ZeroBiasBitIdenticalExponential) {
  // Short horizon relative to the fault times so both censored and lossy
  // trials occur; alpha < 1 exercises the correlation-redraw path.
  FaultParams p = BusyParams(Duration::Hours(40.0));
  p.alpha = 0.3;
  CheckZeroBiasBitIdentical(MirrorOf(p), Duration::Hours(20000.0));
}

TEST(RareEventTest, ZeroBiasBitIdenticalWeibull) {
  CheckZeroBiasBitIdentical(WeibullScenario(), Duration::Hours(20000.0));
}

// A theta of 1 is the same measure regardless of tilt_probability, so it
// must also take the bit-identical path (no extra uniforms consumed).
TEST(RareEventTest, UnitThetaIsIdentityEvenWithTiltProbability) {
  FaultBias bias;
  bias.tilt_probability = 0.9;
  ASSERT_TRUE(bias.is_identity());
  const Scenario scenario = MirrorOf(BusyParams(Duration::Hours(100.0)));
  TrialRunner unbiased(scenario);
  TrialRunner identity(scenario, ConfigValidation::kValidate, bias);
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const RunOutcome a = unbiased.Run(seed, Duration::Hours(20000.0));
    const RunOutcome b = identity.Run(seed, Duration::Hours(20000.0));
    EXPECT_EQ(b.log_weight, 0.0);
    ExpectBitIdenticalOutcome(a, b);
  }
}

// Per-draw exactness of the likelihood ratio, tested at the sampler level
// where the weight is a single bounded factor and the sample mean of w is a
// reliable estimator: E[w] = 1 (unbiasedness of the change of measure) and
// E[w · 1{X ≤ W}] = F(W) (the weighted window mass reproduces the *nominal*
// window probability, which is precisely what forcing must preserve).
void CheckDrawLikelihoodRatio(const FaultBias& bias, bool weibull, double age) {
  BiasedFaultSampler sampler(bias);
  Rng rng(0xfeedface);
  const Duration window = Duration::Hours(90.0);
  const Duration mean = Duration::Hours(1000.0);
  const double shape = 2.0;
  // Weibull scale chosen so the draw mean matches `mean` at shape 2.
  const Duration scale = mean / std::tgamma(1.0 + 1.0 / shape);
  RunningStats weights;
  RunningStats weighted_inside;
  for (int i = 0; i < 200000; ++i) {
    sampler.BeginTrial(window);
    const Duration x =
        weibull ? sampler.DrawWeibullResidualFault(rng, shape, scale, age,
                                                   FaultKind::kLatent,
                                                   /*forcing_eligible=*/true)
                : sampler.DrawExponentialFault(rng, mean, FaultKind::kLatent,
                                               /*forcing_eligible=*/true);
    const double w = sampler.weight();
    weights.Add(w);
    weighted_inside.Add(x <= window ? w : 0.0);
  }
  EXPECT_NEAR(weights.mean(), 1.0, 4.0 * weights.std_error());
  double nominal_window_mass;
  if (weibull) {
    const double end = age + window / scale;
    nominal_window_mass =
        -std::expm1(-(std::pow(end, shape) - std::pow(age, shape)));
  } else {
    nominal_window_mass = -std::expm1(-(window / mean));
  }
  EXPECT_NEAR(weighted_inside.mean(), nominal_window_mass,
              4.0 * weighted_inside.std_error() + 1e-6);
}

TEST(RareEventTest, DrawLikelihoodRatioExactExponential) {
  CheckDrawLikelihoodRatio(LatentTilt(8.0, /*force=*/0.5), /*weibull=*/false, 0.0);
}

TEST(RareEventTest, DrawLikelihoodRatioExactWeibull) {
  CheckDrawLikelihoodRatio(LatentTilt(8.0, /*force=*/0.5), /*weibull=*/true,
                           /*age=*/0.0);
}

TEST(RareEventTest, DrawLikelihoodRatioExactWeibullAged) {
  // Nonzero age exercises the residual-lifetime conditioning in both the
  // draw inversion and the forcing-window hazard.
  CheckDrawLikelihoodRatio(LatentTilt(4.0, /*force=*/0.4), /*weibull=*/true,
                           /*age=*/1.7);
}

// Trial-level exactness: the trial weight w = dP/dQ has E_Q[w] = 1 over the
// stopped path measure. Rare-regime configs keep the number of weight-
// carrying draws per trial small, so the sample mean of w is trustworthy
// (in fault-dense regimes the product weight is too heavy-tailed for this
// diagnostic — which is exactly why the tuner tilts only the loss-driving
// hazard; see src/rare/README.md).
void CheckMeanWeightIsOne(const Scenario& scenario, const FaultBias& bias,
                          Duration horizon, int64_t trials) {
  TrialRunner runner(scenario, ConfigValidation::kValidate, bias);
  RunningStats weights;
  for (int64_t t = 0; t < trials; ++t) {
    const RunOutcome outcome = runner.Run(DeriveSeed(0xabcdef, t), horizon);
    weights.Add(std::exp(outcome.log_weight));
  }
  const double tolerance = std::max(0.02, 4.0 * weights.std_error());
  EXPECT_NEAR(weights.mean(), 1.0, tolerance)
      << "mean weight off over " << trials << " trials (SE " << weights.std_error()
      << "): the likelihood ratio is not exact";
}

TEST(RareEventTest, MeanWeightIsOneExponentialLatentTilt) {
  CheckMeanWeightIsOne(MirrorOf(CalibrationParams()), LatentTilt(8.0),
                       Duration::Years(1.0), 20000);
}

TEST(RareEventTest, MeanWeightIsOneExponentialVisibleTilt) {
  FaultBias bias;
  bias.theta_visible = 4.0;
  bias.force_probability = 0.3;
  CheckMeanWeightIsOne(MirrorOf(CalibrationParams()), bias, Duration::Years(1.0), 20000);
}

TEST(RareEventTest, MeanWeightIsOneWeibull) {
  // Rare-regime scales (fault times far beyond the mission) with wear-out
  // shape: a handful of draws per trial, all through the Weibull path.
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(2, ReplicaSpec()
                           .FaultTimes(Duration::Hours(1.0e6), Duration::Hours(2.0e5))
                           .RepairTimes(Duration::Hours(10.0), Duration::Hours(10.0))
                           .Weibull(2.0)
                           .ScrubEvery(Duration::Hours(200.0))
                           // Same-batch fleet, mid-bathtub.
                           .InitialAge(Duration::Hours(5.0e4)))
          .Build();
  FaultBias bias;
  bias.theta_latent = 8.0;
  bias.theta_visible = 2.0;
  bias.force_probability = 0.4;
  CheckMeanWeightIsOne(scenario, bias, Duration::Years(1.0), 20000);
}

TEST(RareEventTest, CoversAnalyticLossProbability) {
  const FaultParams params = CalibrationParams();
  const Duration mission = Duration::Years(1.0);
  const auto exact =
      MirroredLossProbability(params, mission, RateConvention::kPhysical);
  ASSERT_TRUE(exact.has_value());

  IsOptions options;
  options.bias = LatentTilt(8.0);
  McConfig mc;
  mc.trials = 20000;
  mc.seed = 4242;
  const IsLossProbabilityEstimate is =
      EstimateLossProbabilityIS(MirrorOf(params), mission, mc, options);
  EXPECT_GT(is.estimate.hits, 100);
  EXPECT_TRUE(is.estimate.ci.lo <= *exact && *exact <= is.estimate.ci.hi)
      << "exact=" << *exact << " is=[" << is.estimate.ci.lo << ", "
      << is.estimate.ci.hi << "] p=" << is.probability();
  // Sanity of the diagnostics: relative error well under 1, a real ESS.
  EXPECT_LT(is.estimate.relative_error, 0.5);
  EXPECT_GT(is.estimate.effective_sample_size, 10.0);
}

TEST(RareEventTest, AutoTunerCoversAnalyticLossProbability) {
  const FaultParams params = CalibrationParams();
  const Duration mission = Duration::Years(1.0);
  const auto exact =
      MirroredLossProbability(params, mission, RateConvention::kPhysical);
  ASSERT_TRUE(exact.has_value());

  IsOptions options;
  options.theta_grid = {4.0, 16.0, 64.0};
  options.pilot_trials = 1500;
  McConfig mc;
  mc.trials = 20000;
  mc.seed = 77;
  const IsLossProbabilityEstimate is =
      EstimateLossProbabilityIS(MirrorOf(params), mission, mc, options);
  // identity + forcing-only + 3 grid candidates were piloted.
  ASSERT_EQ(is.pilot.size(), 5u);
  EXPECT_EQ(is.pilot_trials_total, 5 * 1500);
  EXPECT_FALSE(is.bias.is_identity());
  EXPECT_TRUE(is.estimate.ci.lo <= *exact && *exact <= is.estimate.ci.hi)
      << "exact=" << *exact << " is=[" << is.estimate.ci.lo << ", "
      << is.estimate.ci.hi << "]";
}

// The pinned rare-loss config (src/rare/pinned_configs.h, shared with the
// bench_rare_perf CI gate): ~2.4e-6 per year, i.e. ~4e7 naive trials for
// 10% relative error.
TEST(RareEventTest, TenfoldVarianceReductionOnRareLossConfig) {
  const Duration mission = Duration::Years(1.0);
  const auto exact = MirroredLossProbability(PinnedRareLossParams(), mission,
                                             RateConvention::kPhysical);
  ASSERT_TRUE(exact.has_value());
  ASSERT_LT(*exact, 1e-5);  // the config really is in the rare regime

  IsOptions options;
  options.bias = LatentTilt(16.0);
  McConfig mc;
  mc.trials = 20000;
  mc.seed = 31337;
  const IsLossProbabilityEstimate is =
      EstimateLossProbabilityIS(PinnedRareLossScenario(), mission, mc, options);
  EXPECT_TRUE(is.estimate.ci.lo <= *exact && *exact <= is.estimate.ci.hi)
      << "exact=" << *exact << " is=[" << is.estimate.ci.lo << ", "
      << is.estimate.ci.hi << "]";
  // Trials-to-equal-CI ratio vs naive Monte Carlo: per-trial variance
  // p(1-p) for the indicator vs the weighted estimator's sample variance.
  const double naive_variance = *exact * (1.0 - *exact);
  const double is_variance = is.estimate.weighted.variance();
  ASSERT_GT(is_variance, 0.0);
  EXPECT_GE(naive_variance / is_variance, 10.0)
      << "importance sampling must cut trials-to-equal-CI by >= 10x here";
}

TEST(RareEventTest, IdentityWeightedSweepMatchesPlainLossProbability) {
  // With the identity bias and shared-root seeding, the weighted estimand
  // sees exactly the trials kLossProbability sees: same losses, weight 1.
  const Scenario scenario = MirrorOf(BusyParams(Duration::Hours(40.0)));
  const Duration mission = Duration::Hours(20000.0);
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = mission;
  options.mc.trials = 4000;
  options.mc.seed = 555;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const LossProbabilityEstimate plain =
      *SweepRunner().Run(SweepSpec(scenario), options).cells.front().loss;

  options.estimand = SweepOptions::Estimand::kWeightedLossProbability;
  options.bias = FaultBias{};
  const SweepResult result = SweepRunner().Run(SweepSpec(scenario), options);
  const WeightedLossProbabilityEstimate& weighted = *result.cells.front().weighted;

  EXPECT_EQ(weighted.hits, plain.losses);
  EXPECT_NEAR(weighted.probability(), plain.probability(), 1e-12);
  EXPECT_EQ(weighted.max_weight, 1.0);  // every loss carries weight exactly 1
  EXPECT_EQ(weighted.aggregate_metrics.visible_faults,
            plain.aggregate_metrics.visible_faults);
}

TEST(RareEventTest, InvalidBiasIsRejected) {
  const Scenario scenario = MirrorOf(CalibrationParams());
  McConfig mc;
  mc.trials = 10;

  IsOptions options;
  FaultBias bias;
  bias.theta_latent = 0.5;  // deceleration is not failure biasing
  options.bias = bias;
  EXPECT_THROW(EstimateLossProbabilityIS(scenario, Duration::Years(1.0), mc, options),
               std::invalid_argument);

  bias = FaultBias{};
  bias.force_probability = 1.0;  // hard conditioning would zero nominal paths
  options.bias = bias;
  EXPECT_THROW(EstimateLossProbabilityIS(scenario, Duration::Years(1.0), mc, options),
               std::invalid_argument);

  bias = FaultBias{};
  bias.tilt_probability = 1.0;
  bias.theta_latent = 4.0;
  options.bias = bias;
  EXPECT_THROW(EstimateLossProbabilityIS(scenario, Duration::Years(1.0), mc, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace longstore
