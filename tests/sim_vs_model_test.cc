// Integration tests: the validation triangle. The Monte Carlo simulator, the
// exact CTMC solver, and (in its validity regime) the paper's closed forms
// must agree on the same stochastic process.

#include <cmath>

#include <gtest/gtest.h>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

// Sped-up parameters: same regime structure as the paper's example (latent
// faults 5x visible, repair fast, detection in between) but with MTTDL a few
// thousand hours so trials are cheap.
FaultParams FastParams(double alpha = 1.0) {
  FaultParams p;
  p.mv = Duration::Hours(2000.0);
  p.ml = Duration::Hours(400.0);
  p.mrv = Duration::Hours(2.0);
  p.mrl = Duration::Hours(2.0);
  p.mdl = Duration::Hours(40.0);
  p.alpha = alpha;
  return p;
}

// SpecFromParams realizes MDL as exponential audits with mean = MDL, which
// match the CTMC's detection rate.
Scenario ScenarioFor(const FaultParams& p, int replicas) {
  return ScenarioBuilder()
      .Replicas(replicas, SpecFromParams(p))
      .Correlation(p.alpha)
      .Build();
}

double McMttdlHours(const Scenario& scenario, int64_t trials, uint64_t seed) {
  McConfig mc;
  mc.trials = trials;
  mc.seed = seed;
  const MttdlEstimate estimate = EstimateMttdl(scenario, mc);
  EXPECT_EQ(estimate.censored_trials, 0);
  return estimate.loss_time_years.mean() * kHoursPerYear;
}

TEST(SimVsModelTest, MirroredPhysicalConventionMatchesCtmc) {
  const FaultParams p = FastParams();
  const auto ctmc = MirroredMttdl(p, RateConvention::kPhysical);
  ASSERT_TRUE(ctmc.has_value());
  const double mc = McMttdlHours(ScenarioFor(p, 2), 6000, 101);
  // 6000 trials of an ~exponential time: SE ~ 1.3%; 5 sigma ~ 6.5%.
  EXPECT_NEAR(mc / ctmc->hours(), 1.0, 0.065);
}

TEST(SimVsModelTest, CorrelatedMirrorMatchesCtmc) {
  const FaultParams p = FastParams(/*alpha=*/0.2);
  const auto ctmc = MirroredMttdl(p, RateConvention::kPhysical);
  ASSERT_TRUE(ctmc.has_value());
  const double mc = McMttdlHours(ScenarioFor(p, 2), 6000, 107);
  EXPECT_NEAR(mc / ctmc->hours(), 1.0, 0.065);
}

TEST(SimVsModelTest, ThreeWayReplicationMatchesCtmc) {
  // Higher fault rates so triple faults happen quickly.
  FaultParams p = FastParams(/*alpha=*/0.5);
  p.mv = Duration::Hours(500.0);
  p.ml = Duration::Hours(100.0);
  p.mdl = Duration::Hours(30.0);
  const ReplicatedChainBuilder chain(p, 3, RateConvention::kPhysical);
  const auto ctmc = chain.Mttdl();
  ASSERT_TRUE(ctmc.has_value());
  const double mc = McMttdlHours(ScenarioFor(p, 3), 4000, 109);
  EXPECT_NEAR(mc / ctmc->hours(), 1.0, 0.08);
}

TEST(SimVsModelTest, MissionLossProbabilityMatchesCtmc) {
  const FaultParams p = FastParams();
  const Duration mission = Duration::Hours(20000.0);
  const auto exact =
      MirroredLossProbability(p, mission, RateConvention::kPhysical);
  ASSERT_TRUE(exact.has_value());
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = mission;
  options.mc.trials = 8000;
  options.mc.seed = 113;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const LossProbabilityEstimate estimate =
      *SweepRunner()
           .Run(SweepSpec(ScenarioFor(p, 2)), options)
           .cells.front()
           .loss;
  EXPECT_TRUE(estimate.wilson_ci.lo <= *exact && *exact <= estimate.wilson_ci.hi)
      << "exact=" << *exact << " mc=[" << estimate.wilson_ci.lo << ", "
      << estimate.wilson_ci.hi << "]";
}

TEST(SimVsModelTest, PeriodicScrubBeatsExponentialAuditSlightly) {
  // Deterministic audits have the same mean detection latency but lower
  // variance: fewer long windows, hence equal-or-better MTTDL. (The CTMC
  // models exponential detection; this quantifies the gap for the simulator's
  // periodic mode.)
  const FaultParams p = FastParams();
  const Scenario periodic =
      ScenarioBuilder()
          .Replicas(2, SpecFromParams(p).ScrubWith(
                           ScrubPolicy::Periodic(p.mdl * 2.0)))  // same mean latency
          .Build();
  const double mttdl_periodic = McMttdlHours(periodic, 6000, 127);
  const double mttdl_exponential = McMttdlHours(ScenarioFor(p, 2), 6000, 127);
  EXPECT_GT(mttdl_periodic, mttdl_exponential * 0.95);
}

TEST(SimVsModelTest, PaperClosedFormWithinConventionFactorOfSimulation) {
  // End-to-end sanity: eq 8 should sit within ~2x of the physical-convention
  // simulation (the replica-count factor), preserving the paper's shape.
  const FaultParams p = FastParams();
  const double eq8 = MttdlClosedForm(p).hours();
  const double mc = McMttdlHours(ScenarioFor(p, 2), 4000, 131);
  EXPECT_GT(eq8 / mc, 1.5);
  EXPECT_LT(eq8 / mc, 2.6);
}

TEST(SimVsModelTest, HazardMultiplierMeasuredInWindows) {
  // Measured second-fault probability inside windows should scale like 1/α.
  const FaultParams independent = FastParams(1.0);
  const FaultParams correlated = FastParams(0.25);
  McConfig mc;
  mc.trials = 3000;
  mc.seed = 137;
  const MttdlEstimate a = EstimateMttdl(ScenarioFor(independent, 2), mc);
  const MttdlEstimate b = EstimateMttdl(ScenarioFor(correlated, 2), mc);
  auto window_loss_rate = [](const SimMetrics& m) {
    const double opened = static_cast<double>(m.windows_opened[0] + m.windows_opened[1]);
    const double second =
        static_cast<double>(m.second_faults[0][0] + m.second_faults[0][1] +
                            m.second_faults[1][0] + m.second_faults[1][1]);
    return second / opened;
  };
  const double ratio = window_loss_rate(b.aggregate_metrics) /
                       window_loss_rate(a.aggregate_metrics);
  // The naive 4x is attenuated by saturation: windows are finite, so the
  // second-fault probability is 1 - exp(-rate * w), not rate * w. For these
  // parameters the expected ratio is ~3.2.
  EXPECT_GT(ratio, 2.6);
  EXPECT_LT(ratio, 3.9);
}

}  // namespace
}  // namespace longstore
