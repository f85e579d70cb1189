// Adaptive (CI-targeted) stopping: the sweep's per-cell adaptive mode
// terminates at the requested relative CI half-width,
// never exceed max_trials, accumulate trials across rounds instead of
// restarting, and report non-increasing half-widths across rounds (at these
// fixed seeds).

#include <cstdint>

#include <gtest/gtest.h>

#include "src/sweep/sweep.h"

namespace longstore {
namespace {

ReplicaSpec FastReplica() {
  return ReplicaSpec()
      .FaultTimes(Duration::Hours(1000.0), Duration::Hours(500.0))
      .RepairTimes(Duration::Hours(50.0), Duration::Hours(50.0))
      .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(100.0)));
}

Scenario FastScenario() { return ScenarioBuilder().Replicas(2, FastReplica()).Build(); }

SweepResult AdaptiveRun(int64_t initial_trials, double precision, int64_t max_trials,
                        uint64_t seed) {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.adaptive = true;
  options.relative_precision = precision;
  options.max_trials = max_trials;
  options.mc.trials = initial_trials;
  options.mc.seed = seed;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  return SweepRunner().Run(SweepSpec(FastScenario()), options);
}

int64_t TotalTrials(const MttdlEstimate& estimate) {
  return estimate.loss_time_years.count() + estimate.censored_trials;
}

TEST(AdaptiveStoppingTest, TerminatesAtRequestedPrecision) {
  const MttdlEstimate estimate = *AdaptiveRun(/*initial_trials=*/100,
                                              /*precision=*/0.05,
                                              /*max_trials=*/50000, /*seed=*/9)
                                     .cells.front()
                                     .mttdl;
  const double half_width = (estimate.ci_years.hi - estimate.ci_years.lo) / 2.0;
  EXPECT_GT(estimate.mean_years(), 0.0);
  EXPECT_LE(half_width / estimate.mean_years(), 0.05);
  EXPECT_LE(TotalTrials(estimate), 50000);
}

TEST(AdaptiveStoppingTest, AccumulatesInsteadOfRestarting) {
  // Rounds grow 100 -> 400 -> 1600 -> ...; the returned estimate must be
  // built on the full accumulated trial count (a restart would report only
  // the last round's count), and an unreachable precision must stop at
  // exactly max_trials, never beyond.
  const SweepResult result = AdaptiveRun(/*initial_trials=*/100,
                                         /*precision=*/1e-9,
                                         /*max_trials=*/2500, /*seed=*/21);
  const SweepCellResult& cell = result.cells.front();
  EXPECT_EQ(cell.trials, 2500);
  EXPECT_EQ(TotalTrials(*cell.mttdl), 2500);
  // 100 -> 400 -> 1600 -> 2500 (capped): four rounds.
  EXPECT_EQ(cell.rounds, 4);
  EXPECT_EQ(cell.half_width_history.size(), 4u);
}

TEST(AdaptiveStoppingTest, StopsInOneRoundWhenAlreadyPrecise) {
  const SweepResult result = AdaptiveRun(/*initial_trials=*/2000,
                                         /*precision=*/0.5,
                                         /*max_trials=*/100000, /*seed=*/7);
  const SweepCellResult& cell = result.cells.front();
  EXPECT_EQ(cell.rounds, 1);
  EXPECT_EQ(cell.trials, 2000);
}

TEST(AdaptiveStoppingTest, HalfWidthsNonIncreasingAcrossRounds) {
  // With accumulation, the half-width shrinks like ~1/sqrt(n) as rounds
  // quadruple the sample; at these fixed seeds the history is reproducible
  // and monotone non-increasing.
  const SweepResult result = AdaptiveRun(/*initial_trials=*/50,
                                         /*precision=*/0.02,
                                         /*max_trials=*/100000, /*seed=*/13);
  const SweepCellResult& cell = result.cells.front();
  ASSERT_GE(cell.half_width_history.size(), 3u);
  for (size_t i = 1; i < cell.half_width_history.size(); ++i) {
    EXPECT_LE(cell.half_width_history[i], cell.half_width_history[i - 1])
        << "round " << i;
  }
  // And the final round met the target.
  const MttdlEstimate& estimate = *cell.mttdl;
  const double half_width = (estimate.ci_years.hi - estimate.ci_years.lo) / 2.0;
  EXPECT_LE(half_width / estimate.mean_years(), 0.02);
}

TEST(AdaptiveStoppingTest, PerCellStoppingIsIndependent) {
  // A low-variance cell (same-batch wear-out Weibull: loss times concentrate
  // around the batch's wear-out age) converges in fewer rounds than an
  // exponential cell (CV ~ 1). Convergence must be tracked per cell, not per
  // sweep, so the cheap cell drops out of later rounds.
  SweepSpec spec;
  spec.AddCell("tight", ScenarioBuilder()
                            .Replicas(2, FastReplica().Weibull(4.0))  // wear-out
                            .Build());
  spec.AddCell("noisy", FastScenario());
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.adaptive = true;
  options.relative_precision = 0.04;
  options.max_trials = 200000;
  options.mc.trials = 500;
  options.mc.seed = 17;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult result = SweepRunner().Run(spec, options);
  const SweepCellResult& tight_cell = result.ByLabel("tight");
  const SweepCellResult& noisy_cell = result.ByLabel("noisy");
  EXPECT_LT(tight_cell.trials, noisy_cell.trials);
  EXPECT_LT(tight_cell.rounds, noisy_cell.rounds);
  for (const SweepCellResult& cell : result.cells) {
    const MttdlEstimate& estimate = *cell.mttdl;
    const double half_width = (estimate.ci_years.hi - estimate.ci_years.lo) / 2.0;
    EXPECT_LE(half_width / estimate.mean_years(), 0.04) << cell.label;
    EXPECT_LE(cell.trials, 200000) << cell.label;
  }
}

// The resume contract behind the sweep service's near-hit cache path: a
// converged looser-precision run, continued at a tighter precision by
// passing it to RunSweepCells as the prior, must land on executions
// byte-identical to a cold run at the tighter precision — same accumulator
// bits, trials, rounds, and half-width history — while only simulating the
// trials past the prior run.
TEST(AdaptiveStoppingTest, ResumeFromLooserPrecisionMatchesColdRunExactly) {
  SweepSpec spec(FastScenario());
  SweepOptions loose;
  loose.estimand = SweepOptions::Estimand::kMttdl;
  loose.adaptive = true;
  loose.relative_precision = 0.2;
  loose.max_trials = 100000;
  loose.mc.trials = 100;
  loose.mc.seed = 21;
  loose.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  SweepOptions tight = loose;
  tight.relative_precision = 0.03;

  WorkerPool& pool = WorkerPool::Shared();
  std::vector<SweepCellExecution> prior =
      RunSweepCells(pool, spec.BuildCells(), loose);
  const int64_t prior_trials = prior[0].trials;
  std::vector<SweepCellExecution> cold =
      RunSweepCells(pool, spec.BuildCells(), tight);
  ASSERT_GT(cold[0].trials, prior_trials)
      << "tight precision must need more trials or the resume is trivial";

  std::vector<SweepCellExecution> resumed =
      RunSweepCells(pool, spec.BuildCells(), tight, std::move(prior));
  ASSERT_EQ(resumed.size(), cold.size());
  EXPECT_EQ(resumed[0].trials, cold[0].trials);
  EXPECT_EQ(resumed[0].rounds, cold[0].rounds);
  EXPECT_EQ(resumed[0].half_width_history, cold[0].half_width_history);
  // Byte-level: the finalized result (the service's response body) matches.
  const auto finalize = [&](std::vector<SweepCellExecution> executions) {
    return FinalizeSweepCells(std::move(executions), spec.AxisNames(),
                              tight.estimand, tight.mc.confidence)
        .ToJson();
  };
  EXPECT_EQ(finalize(std::move(resumed)), finalize(std::move(cold)));
}

// Resuming a run that is *already* converged at the requested precision must
// return it unchanged without simulating anything.
TEST(AdaptiveStoppingTest, ResumeAtSamePrecisionIsANoOp) {
  SweepSpec spec(FastScenario());
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.adaptive = true;
  options.relative_precision = 0.1;
  options.max_trials = 100000;
  options.mc.trials = 100;
  options.mc.seed = 21;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  WorkerPool& pool = WorkerPool::Shared();
  const std::vector<SweepCellExecution> first =
      RunSweepCells(pool, spec.BuildCells(), options);
  std::vector<SweepCellExecution> prior =
      RunSweepCells(pool, spec.BuildCells(), options);
  const std::vector<SweepCellExecution> resumed =
      RunSweepCells(pool, spec.BuildCells(), options, std::move(prior));
  EXPECT_EQ(resumed[0].trials, first[0].trials);
  EXPECT_EQ(resumed[0].rounds, first[0].rounds);
  EXPECT_EQ(resumed[0].half_width_history, first[0].half_width_history);
}

TEST(AdaptiveStoppingTest, ResumeRejectsMismatchedPriors) {
  SweepSpec spec(FastScenario());
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.adaptive = true;
  options.relative_precision = 0.1;
  options.max_trials = 100000;
  options.mc.trials = 100;
  options.mc.seed = 21;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  WorkerPool& pool = WorkerPool::Shared();
  const std::vector<SweepCellExecution> prior =
      RunSweepCells(pool, spec.BuildCells(), options);

  // Wrong cardinality: one cell more than the request.
  {
    std::vector<SweepCellExecution> extra = prior;
    extra.push_back(prior[0]);
    EXPECT_THROW(
        RunSweepCells(pool, spec.BuildCells(), options, std::move(extra)),
        std::invalid_argument);
  }
  // Wrong label.
  {
    std::vector<SweepCellExecution> bad = prior;
    bad[0].label = "someone-else";
    EXPECT_THROW(
        RunSweepCells(pool, spec.BuildCells(), options, std::move(bad)),
        std::invalid_argument);
  }
  // Non-adaptive requests are not resumable.
  SweepOptions fixed = options;
  fixed.adaptive = false;
  {
    std::vector<SweepCellExecution> copy = prior;
    EXPECT_THROW(
        RunSweepCells(pool, spec.BuildCells(), fixed, std::move(copy)),
        std::invalid_argument);
  }
  // Nor is a non-adaptive run a prior: it records no half-width for its
  // one round.
  EXPECT_THROW(RunSweepCells(pool, spec.BuildCells(), options,
                             RunSweepCells(pool, spec.BuildCells(), fixed)),
               std::invalid_argument);
}

TEST(AdaptiveStoppingTest, RejectsNonPositivePrecisionAndMaxTrials) {
  const uint64_t seed = McConfig().seed;
  EXPECT_THROW(AdaptiveRun(50, 0.0, 100, seed), std::invalid_argument);
  EXPECT_THROW(AdaptiveRun(50, -1.0, 100, seed), std::invalid_argument);
  EXPECT_THROW(AdaptiveRun(50, 0.05, 0, seed), std::invalid_argument);
  EXPECT_THROW(AdaptiveRun(50, 0.05, -5, seed), std::invalid_argument);
}

}  // namespace
}  // namespace longstore
