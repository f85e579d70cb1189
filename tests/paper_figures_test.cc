// Golden-figure regression suite: pins the paper's §5.4 Cheetah sweep and
// one correlation-sweep row at fixed seeds to exact expected values, so
// future performance work on the engine, the Monte Carlo layer, or the
// sweep runner cannot silently drift the paper reproduction.
//
// The sweep determinism contract (bit-identical estimates for any thread
// count, lane schedule, or cell order — see sweep_determinism_test.cc) is
// what makes exact pins safe on any machine shape. The golden *values* are
// still toolchain-pinned: a different libm (exp/log in the samplers) can
// legitimately reorder simulated events. If a compiler/libc upgrade moves
// them, re-derive the constants with the recipe below and bump them in one
// commit that changes nothing else. Environments that intentionally run
// uncontrolled toolchains (the hosted CI runners, whose images roll
// compilers underneath us) set LONGSTORE_SKIP_EXACT_GOLDENS=1 to skip the
// exact pins; the shape checks below run unconditionally everywhere.
//
// Paper anchors for the same three configurations (§5.4): MTTDL 32.0 y
// unscrubbed, 6128.7 y scrubbed 3x/year, 612.9 y at alpha = 0.1 — all from
// the paper's own approximate equations under the paper rate convention.
// The simulator measures the physical convention (per-replica fault clocks,
// exact chain), whose exact values are ~42.6 y / ~2596 y / ~274 y; the
// golden means below sit inside those CTMC values' Monte Carlo CIs.

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "src/model/fault_params.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

// Matches the scenarios of tools/figure_sweeps.h's Cheetah sweep, the
// simulation column of bench_scrubbing_effect's §5.4 table.
Scenario CheetahScenario(const FaultParams& p) {
  return ScenarioBuilder().Replicas(2, SpecFromParams(p)).Correlation(p.alpha).Build();
}

SweepResult RunCheetahSweep() {
  const FaultParams unscrubbed = FaultParams::PaperCheetahExample();
  const FaultParams scrubbed =
      ApplyScrubPolicy(unscrubbed, ScrubPolicy::PeriodicPerYear(3.0));
  const FaultParams correlated = WithCorrelation(scrubbed, 0.1);
  SweepSpec spec;
  spec.AddCell("unscrubbed", CheetahScenario(unscrubbed));
  spec.AddCell("scrub 3x/year", CheetahScenario(scrubbed));
  spec.AddCell("scrub 3x/year, alpha=0.1", CheetahScenario(correlated));
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc.trials = 2000;
  options.mc.seed = 0x5ca1ab1e;
  options.seed_mode = SweepOptions::SeedMode::kPerCellDerived;
  return SweepRunner().Run(spec, options);
}

struct MttdlGolden {
  const char* label;
  double mean_years;
  double ci_lo;
  double ci_hi;
  double variance;
  int64_t censored;
  int64_t visible_faults;
  int64_t latent_faults;
};

// Derived with the recipe above (trials=2000, seed=0x5ca1ab1e, per-cell
// derived seeds) on the reference toolchain.
constexpr MttdlGolden kCheetahGoldens[] = {
    {"unscrubbed", 42.69710568063293, 41.365123757683151, 44.02908760358271,
     923.69900388229075, 0, 749, 3644},
    {"scrub 3x/year", 2556.6018092533677, 2441.5644342516098, 2671.6391842551257,
     6889881.3003045069, 0, 63995, 318046},
    {"scrub 3x/year, alpha=0.1", 286.91990009573067, 274.47298676293946,
     299.36681342852188, 80659.800739981481, 0, 7329, 37208},
};

bool SkipExactGoldens() {
  const char* flag = std::getenv("LONGSTORE_SKIP_EXACT_GOLDENS");
  return flag != nullptr && std::strcmp(flag, "0") != 0 && flag[0] != '\0';
}

TEST(PaperFiguresTest, CheetahSweepMatchesGoldens) {
  if (SkipExactGoldens()) {
    GTEST_SKIP() << "LONGSTORE_SKIP_EXACT_GOLDENS set (uncontrolled toolchain)";
  }
  const SweepResult result = RunCheetahSweep();
  ASSERT_EQ(result.cells.size(), 3u);
  for (const MttdlGolden& golden : kCheetahGoldens) {
    const SweepCellResult& cell = result.ByLabel(golden.label);
    ASSERT_TRUE(cell.mttdl.has_value()) << golden.label;
    const MttdlEstimate& estimate = *cell.mttdl;
    const double tolerance = golden.mean_years * 1e-12;
    EXPECT_NEAR(estimate.mean_years(), golden.mean_years, tolerance) << golden.label;
    EXPECT_NEAR(estimate.ci_years.lo, golden.ci_lo, tolerance) << golden.label;
    EXPECT_NEAR(estimate.ci_years.hi, golden.ci_hi, tolerance) << golden.label;
    EXPECT_NEAR(estimate.loss_time_years.variance(), golden.variance,
                golden.variance * 1e-12)
        << golden.label;
    EXPECT_EQ(estimate.censored_trials, golden.censored) << golden.label;
    EXPECT_EQ(estimate.loss_time_years.count(), 2000) << golden.label;
    EXPECT_EQ(estimate.aggregate_metrics.visible_faults, golden.visible_faults)
        << golden.label;
    EXPECT_EQ(estimate.aggregate_metrics.latent_faults, golden.latent_faults)
        << golden.label;
  }
}

TEST(PaperFiguresTest, CheetahSweepReproducesPaperShape) {
  // The paper's implications 2 and 3, as order-of-magnitude shape checks
  // that hold for any valid seeds: scrubbing buys ~2 orders of magnitude of
  // MTTDL; correlation at alpha = 0.1 gives back about one of them.
  const SweepResult result = RunCheetahSweep();
  const double unscrubbed = result.ByLabel("unscrubbed").mttdl->mean_years();
  const double scrubbed = result.ByLabel("scrub 3x/year").mttdl->mean_years();
  const double correlated =
      result.ByLabel("scrub 3x/year, alpha=0.1").mttdl->mean_years();
  EXPECT_GT(scrubbed / unscrubbed, 30.0);
  EXPECT_LT(scrubbed / unscrubbed, 300.0);
  EXPECT_GT(scrubbed / correlated, 3.0);
  EXPECT_LT(scrubbed / correlated, 30.0);
}

TEST(PaperFiguresTest, CorrelationRowMatchesGoldens) {
  // One row of the §5.4 correlation sweep (alpha = 0.1, scrubbed Cheetah)
  // through the mission-loss estimand: P(loss in 50 y). The loss *count* is
  // an integer, so this pin is exact by construction.
  const FaultParams correlated = WithCorrelation(
      ApplyScrubPolicy(FaultParams::PaperCheetahExample(),
                       ScrubPolicy::PeriodicPerYear(3.0)),
      0.1);
  SweepSpec spec;
  spec.AddCell("alpha=0.1", CheetahScenario(correlated));
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Years(50.0);
  options.mc.trials = 4000;
  options.mc.seed = 0xa1fa;
  options.seed_mode = SweepOptions::SeedMode::kPerCellDerived;
  const SweepResult result = SweepRunner().Run(spec, options);
  const LossProbabilityEstimate& estimate = *result.cells.front().loss;
  EXPECT_EQ(estimate.trials, 4000);
  // Paper anchor: 7.8% from the approximate equations; the exact physical
  // chain (and the simulator) put it near 16%. This band holds on any
  // toolchain.
  EXPECT_GT(estimate.probability(), 0.10);
  EXPECT_LT(estimate.probability(), 0.25);
  if (SkipExactGoldens()) {
    GTEST_SKIP() << "LONGSTORE_SKIP_EXACT_GOLDENS set (uncontrolled toolchain)";
  }
  EXPECT_EQ(estimate.losses, 640);
  EXPECT_DOUBLE_EQ(estimate.probability(), 0.16);
  EXPECT_NEAR(estimate.wilson_ci.lo, 0.14896594700814639, 1e-13);
  EXPECT_NEAR(estimate.wilson_ci.hi, 0.17168647442885063, 1e-13);
}

}  // namespace
}  // namespace longstore
