// The sweep determinism contract: estimates are bit-identical regardless of
// the pool's size, lane scheduling, and the order cells were added to the spec
// — for exponential and Weibull fault distributions, fixed and adaptive
// trial counts. This is what makes the golden-figure regression suite
// (paper_figures_test.cc) meaningful on any machine shape.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sweep/sweep.h"

namespace longstore {
namespace {

ReplicaSpec MirrorReplica() {
  return ReplicaSpec()
      .FaultTimes(Duration::Hours(2000.0), Duration::Hours(400.0))
      .RepairTimes(Duration::Hours(2.0), Duration::Hours(2.0))
      .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(40.0)));
}

ReplicaSpec WeibullReplica() {
  return MirrorReplica()
      .Weibull(2.0)  // wear-out
      .ScrubEvery(Duration::Hours(80.0))
      .DeterministicRepair();
}

// Four heterogeneous cells covering exponential and Weibull machinery.
std::vector<std::pair<std::string, Scenario>> Cells() {
  std::vector<std::pair<std::string, Scenario>> cells;
  cells.emplace_back("exp mirror", ScenarioBuilder().Replicas(2, MirrorReplica()).Build());
  cells.emplace_back("exp triple alpha=0.3",
                     ScenarioBuilder().Replicas(3, MirrorReplica()).Correlation(0.3).Build());
  cells.emplace_back("weibull mirror",
                     ScenarioBuilder().Replicas(2, WeibullReplica()).Build());
  cells.emplace_back(
      "weibull same-batch aged",
      ScenarioBuilder()
          .Replicas(2, WeibullReplica().InitialAge(Duration::Hours(1000.0)))
          .Build());
  return cells;
}

SweepResult RunWith(bool shuffled, WorkerPool* pool, bool adaptive = false) {
  auto cell_list = Cells();
  if (shuffled) {
    std::reverse(cell_list.begin(), cell_list.end());
    std::swap(cell_list[0], cell_list[2]);
  }
  SweepSpec spec;
  for (auto& [label, scenario] : cell_list) {
    spec.AddCell(label, scenario);
  }
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc.trials = 700;  // deliberately not a multiple of the block size
  options.mc.seed = 0xd15c0;
  options.seed_mode = SweepOptions::SeedMode::kPerCellDerived;
  if (adaptive) {
    options.adaptive = true;
    options.relative_precision = 0.02;
    options.max_trials = 6000;
  }
  return SweepRunner(pool).Run(spec, options);
}

void ExpectBitIdentical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (const SweepCellResult& cell_a : a.cells) {
    const SweepCellResult& cell_b = b.ByLabel(cell_a.label);
    const MttdlEstimate& ea = *cell_a.mttdl;
    const MttdlEstimate& eb = *cell_b.mttdl;
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit-identical, not
    // almost-equal.
    EXPECT_EQ(ea.mean_years(), eb.mean_years()) << cell_a.label;
    EXPECT_EQ(ea.loss_time_years.variance(), eb.loss_time_years.variance())
        << cell_a.label;
    EXPECT_EQ(ea.ci_years.lo, eb.ci_years.lo) << cell_a.label;
    EXPECT_EQ(ea.ci_years.hi, eb.ci_years.hi) << cell_a.label;
    EXPECT_EQ(ea.censored_trials, eb.censored_trials) << cell_a.label;
    EXPECT_EQ(ea.aggregate_metrics.visible_faults,
              eb.aggregate_metrics.visible_faults)
        << cell_a.label;
    EXPECT_EQ(ea.aggregate_metrics.latent_faults, eb.aggregate_metrics.latent_faults)
        << cell_a.label;
    EXPECT_EQ(ea.aggregate_metrics.detection_latency_hours.mean(),
              eb.aggregate_metrics.detection_latency_hours.mean())
        << cell_a.label;
    EXPECT_EQ(cell_a.trials, cell_b.trials) << cell_a.label;
  }
}

TEST(SweepDeterminismTest, PoolSizeDoesNotChangeEstimates) {
  WorkerPool one_lane(1);
  WorkerPool eight_lanes(8);  // real workers regardless of the host's cores
  const SweepResult one = RunWith(/*shuffled=*/false, &one_lane);
  const SweepResult eight = RunWith(/*shuffled=*/false, &eight_lanes);
  ExpectBitIdentical(one, eight);
}

TEST(SweepDeterminismTest, SubmissionOrderDoesNotChangeEstimates) {
  WorkerPool pool(8);
  const SweepResult in_order = RunWith(/*shuffled=*/false, &pool);
  const SweepResult shuffled = RunWith(/*shuffled=*/true, &pool);
  ExpectBitIdentical(in_order, shuffled);
}

TEST(SweepDeterminismTest, SharedVsPrivatePoolAgree) {
  WorkerPool pool(3);
  const SweepResult private_pool = RunWith(false, &pool);
  const SweepResult shared_pool = RunWith(false, nullptr);
  ExpectBitIdentical(private_pool, shared_pool);
}

TEST(SweepDeterminismTest, AdaptiveRunsAreDeterministicToo) {
  // Adaptive rounds pick each cell's trial counts from its accumulated
  // stats; those are deterministic, so the whole adaptive trajectory
  // (including per-cell totals) must not depend on the pool's size.
  WorkerPool one_lane(1);
  WorkerPool eight_lanes(8);
  const SweepResult one = RunWith(false, &one_lane, /*adaptive=*/true);
  const SweepResult eight = RunWith(true, &eight_lanes, /*adaptive=*/true);
  ExpectBitIdentical(one, eight);
  for (const SweepCellResult& cell : one.cells) {
    const SweepCellResult& other = eight.ByLabel(cell.label);
    ASSERT_EQ(cell.half_width_history.size(), other.half_width_history.size());
    for (size_t i = 0; i < cell.half_width_history.size(); ++i) {
      EXPECT_EQ(cell.half_width_history[i], other.half_width_history[i]);
    }
  }
}

TEST(SweepDeterminismTest, RepeatedRunsAreIdentical) {
  const SweepResult first = RunWith(false, nullptr);
  const SweepResult second = RunWith(false, nullptr);
  ExpectBitIdentical(first, second);
}

// The weighted (importance-sampled) estimand rides the same block
// aggregation, so its estimates — weighted mean, CI, ESS, max weight, not
// just hit counts — must be bit-identical across pool sizes and cell orders
// too.
SweepResult RunWeightedWith(bool shuffled, WorkerPool* pool) {
  auto cell_list = Cells();
  if (shuffled) {
    std::reverse(cell_list.begin(), cell_list.end());
    std::swap(cell_list[0], cell_list[2]);
  }
  SweepSpec spec;
  for (auto& [label, scenario] : cell_list) {
    spec.AddCell(label, scenario);
  }
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kWeightedLossProbability;
  options.mission = Duration::Hours(20000.0);
  options.bias.theta_latent = 4.0;
  options.bias.force_probability = 0.5;
  options.mc.trials = 700;  // deliberately not a multiple of the block size
  options.mc.seed = 0xd15c0;
  options.seed_mode = SweepOptions::SeedMode::kPerCellDerived;
  return SweepRunner(pool).Run(spec, options);
}

void ExpectWeightedBitIdentical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (const SweepCellResult& cell_a : a.cells) {
    const SweepCellResult& cell_b = b.ByLabel(cell_a.label);
    const WeightedLossProbabilityEstimate& ea = *cell_a.weighted;
    const WeightedLossProbabilityEstimate& eb = *cell_b.weighted;
    EXPECT_EQ(ea.probability(), eb.probability()) << cell_a.label;
    EXPECT_EQ(ea.weighted.variance(), eb.weighted.variance()) << cell_a.label;
    EXPECT_EQ(ea.ci.lo, eb.ci.lo) << cell_a.label;
    EXPECT_EQ(ea.ci.hi, eb.ci.hi) << cell_a.label;
    EXPECT_EQ(ea.relative_error, eb.relative_error) << cell_a.label;
    EXPECT_EQ(ea.effective_sample_size, eb.effective_sample_size) << cell_a.label;
    EXPECT_EQ(ea.max_weight, eb.max_weight) << cell_a.label;
    EXPECT_EQ(ea.hits, eb.hits) << cell_a.label;
    EXPECT_EQ(ea.aggregate_metrics.latent_faults, eb.aggregate_metrics.latent_faults)
        << cell_a.label;
  }
}

TEST(SweepDeterminismTest, WeightedEstimandPoolSizeInvariant) {
  WorkerPool one_lane(1);
  WorkerPool eight_lanes(8);
  const SweepResult one = RunWeightedWith(/*shuffled=*/false, &one_lane);
  const SweepResult eight = RunWeightedWith(/*shuffled=*/false, &eight_lanes);
  ExpectWeightedBitIdentical(one, eight);
}

TEST(SweepDeterminismTest, WeightedEstimandCellOrderInvariant) {
  WorkerPool pool(8);
  const SweepResult in_order = RunWeightedWith(/*shuffled=*/false, &pool);
  const SweepResult shuffled = RunWeightedWith(/*shuffled=*/true, &pool);
  ExpectWeightedBitIdentical(in_order, shuffled);
}

}  // namespace
}  // namespace longstore
