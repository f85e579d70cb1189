// Merge property suite for the shard protocol: for *any* partition of a
// sweep's cells into shards — round-robin or arbitrary, balanced or not,
// empty shards included — and *any* arrival order at the merger, the merged
// SweepResult is byte-identical to the single-process run. Covers the plain
// (kMttdl) and the importance-sampled (kWeightedLossProbability)
// accumulators, randomized partitions under a fixed seed loop, all
// permutations of a 3-shard merge, and the exactness of the underlying
// RunningStats raw-state round trip.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/random.h"

namespace longstore {
namespace {

Scenario BaseScenario() {
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .FaultTimes(Duration::Hours(500.0), Duration::Hours(250.0))
                       .RepairTimes(Duration::Hours(20.0), Duration::Hours(20.0))
                       .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(50.0))))
      .Build();
}

SweepSpec ScrubSweep() {
  SweepSpec spec(BaseScenario());
  spec.AddAxis("scrub_hours");
  for (const double hours : {30.0, 50.0, 80.0, 120.0, 200.0}) {
    spec.AddPoint(std::to_string(static_cast<int>(hours)) + " h", hours,
                  [hours](Scenario& scenario) {
                    for (ReplicaSpec& replica : scenario.replicas) {
                      replica.scrub = ScrubPolicy::Exponential(Duration::Hours(hours));
                    }
                  });
  }
  return spec;
}

SweepOptions MttdlOptions() {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc.trials = 300;
  options.mc.seed = 0xdecade;
  options.seed_mode = SweepOptions::SeedMode::kPerCellDerived;
  return options;
}

SweepOptions WeightedOptions() {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kWeightedLossProbability;
  options.mission = Duration::Years(5.0);
  options.bias.theta_visible = 4.0;
  options.bias.theta_latent = 4.0;
  options.bias.tilt_probability = 0.5;
  options.bias.force_probability = 0.2;
  options.mc.trials = 300;
  options.mc.seed = 0xbead;
  // Content-derived seeds: the mode built for sharded fan-out.
  options.seed_mode = SweepOptions::SeedMode::kScenarioDerived;
  return options;
}

// Builds a ShardSpec holding an arbitrary subset of the one-shard plan
// `whole`'s cells, each over its whole range: the protocol does not require
// the round-robin assignment ShardPlan uses.
ShardSpec ManualShard(const ShardSpec& whole, const std::vector<size_t>& members,
                      int shard_index, int shard_count) {
  ShardSpec shard = whole;
  shard.shard_index = shard_index;
  shard.shard_count = shard_count;
  shard.cells.clear();
  shard.ranges.clear();
  for (const size_t member : members) {
    shard.cells.push_back(whole.cells[member]);
    shard.ranges.push_back(whole.ranges[member]);
  }
  return shard;
}

// Runs `spec` as `partition` (cell index -> shard index), round-trips every
// document through its JSON wire form, merges in `order`, and returns the
// merged result.
SweepResult RunPartitioned(const SweepSpec& spec, const SweepOptions& options,
                           const std::vector<size_t>& partition, int shard_count,
                           const std::vector<size_t>& order) {
  const ShardSpec whole = ShardPlan(spec, options, 1).shards()[0];
  std::vector<std::string> result_jsons;
  for (int k = 0; k < shard_count; ++k) {
    std::vector<size_t> members;
    for (size_t i = 0; i < partition.size(); ++i) {
      if (partition[i] == static_cast<size_t>(k)) {
        members.push_back(i);
      }
    }
    const ShardSpec shard = ManualShard(whole, members, k, shard_count);
    // Exercise the full wire path: spec -> JSON -> worker-side parse ->
    // execute -> result JSON; in-memory shortcuts could hide serialization
    // precision loss.
    const ShardSpec parsed = ShardSpec::FromJson(shard.ToJson());
    result_jsons.push_back(RunShard(parsed).ToJson());
  }
  ShardMerger merger({whole});
  for (const size_t k : order) {
    merger.AddJson(result_jsons[k]);
  }
  return merger.Finish();
}

TEST(ShardMergePropertyTest, RandomPartitionsAndOrdersAreByteIdenticalMttdl) {
  const SweepSpec spec = ScrubSweep();
  const SweepOptions options = MttdlOptions();
  const SweepResult single = SweepRunner().Run(spec, options);
  const std::string golden_csv = single.ToCsv();
  const std::string golden_json = single.ToJson();
  const size_t cell_count = spec.CellCount();

  Rng rng(20260730);
  for (int round = 0; round < 6; ++round) {
    const int shard_count = 1 + static_cast<int>(rng.NextBounded(cell_count + 1));
    std::vector<size_t> partition(cell_count);
    for (size_t i = 0; i < cell_count; ++i) {
      partition[i] = rng.NextBounded(static_cast<uint64_t>(shard_count));
    }
    std::vector<size_t> order(static_cast<size_t>(shard_count));
    for (size_t k = 0; k < order.size(); ++k) {
      order[k] = k;
    }
    for (size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[rng.NextBounded(k)]);
    }
    const SweepResult merged =
        RunPartitioned(spec, options, partition, shard_count, order);
    EXPECT_EQ(merged.ToCsv(), golden_csv) << "round " << round;
    EXPECT_EQ(merged.ToJson(), golden_json) << "round " << round;
  }
}

TEST(ShardMergePropertyTest, RandomPartitionsAreByteIdenticalWeightedLoss) {
  const SweepSpec spec = ScrubSweep();
  const SweepOptions options = WeightedOptions();
  const SweepResult single = SweepRunner().Run(spec, options);
  ASSERT_TRUE(single.cells.front().weighted.has_value());
  // The weighted estimand must actually exercise non-trivial weights for
  // this test to mean anything.
  int64_t hits = 0;
  for (const SweepCellResult& cell : single.cells) {
    hits += cell.weighted->hits;
  }
  ASSERT_GT(hits, 0) << "bias produced no weighted losses; strengthen it";
  const std::string golden_csv = single.ToCsv();
  const std::string golden_json = single.ToJson();
  const size_t cell_count = spec.CellCount();

  Rng rng(424242);
  for (int round = 0; round < 4; ++round) {
    const int shard_count = 1 + static_cast<int>(rng.NextBounded(cell_count));
    std::vector<size_t> partition(cell_count);
    for (size_t i = 0; i < cell_count; ++i) {
      partition[i] = rng.NextBounded(static_cast<uint64_t>(shard_count));
    }
    std::vector<size_t> order(static_cast<size_t>(shard_count));
    for (size_t k = 0; k < order.size(); ++k) {
      order[k] = k;
    }
    std::reverse(order.begin(), order.end());
    const SweepResult merged =
        RunPartitioned(spec, options, partition, shard_count, order);
    EXPECT_EQ(merged.ToCsv(), golden_csv) << "round " << round;
    EXPECT_EQ(merged.ToJson(), golden_json) << "round " << round;
  }
}

TEST(ShardMergePropertyTest, AllMergeOrdersOfAPlanAreIdentical) {
  // Associativity/commutativity at the merge layer: one fixed 3-shard plan,
  // every permutation of arrival order, identical bytes.
  const SweepSpec spec = ScrubSweep();
  const SweepOptions options = MttdlOptions();
  const ShardPlan plan(spec, options, 3);
  std::vector<std::string> result_jsons;
  for (const ShardSpec& shard : plan.shards()) {
    result_jsons.push_back(RunShard(shard).ToJson());
  }

  std::vector<size_t> order = {0, 1, 2};
  std::string first_csv;
  std::string first_json;
  do {
    ShardMerger merger(plan.shards());
    for (const size_t k : order) {
      merger.AddJson(result_jsons[k]);
    }
    const SweepResult merged = merger.Finish();
    if (first_csv.empty()) {
      first_csv = merged.ToCsv();
      first_json = merged.ToJson();
      // Sanity: the plan's merge also matches the single-process run.
      const SweepResult single = SweepRunner().Run(spec, options);
      EXPECT_EQ(first_csv, single.ToCsv());
      EXPECT_EQ(first_json, single.ToJson());
    } else {
      EXPECT_EQ(merged.ToCsv(), first_csv);
      EXPECT_EQ(merged.ToJson(), first_json);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(ShardMergePropertyTest, EmptyShardsAreWellFormedAndMergeCleanly) {
  // More shards than cells: cells split at block boundaries, and with fewer
  // blocks per cell than shards the trailing shards stay empty — they must
  // still round-trip and merge.
  const SweepSpec spec = ScrubSweep();
  const SweepOptions options = MttdlOptions();
  const int shard_count = static_cast<int>(spec.CellCount()) + 3;
  const ShardPlan plan(spec, options, shard_count);
  EXPECT_TRUE(plan.shards().back().cells.empty());
  ShardMerger merger(plan.shards());
  for (const ShardSpec& shard : plan.shards()) {
    const ShardSpec parsed = ShardSpec::FromJson(shard.ToJson());
    merger.AddJson(RunShard(parsed).ToJson());
  }
  ASSERT_TRUE(merger.complete());
  const SweepResult merged = merger.Finish();
  const SweepResult single = SweepRunner().Run(spec, options);
  EXPECT_EQ(merged.ToCsv(), single.ToCsv());
  EXPECT_EQ(merged.ToJson(), single.ToJson());
}

TEST(ShardMergePropertyTest, RunningStatsRawRoundTripIsExact) {
  // The wire format ships Welford state verbatim; a deserialized
  // accumulator must continue bit-identically, not just approximately.
  Rng rng(7);
  RunningStats original;
  for (int i = 0; i < 1000; ++i) {
    original.Add(rng.NextDouble() * 1e6 - 3e5);
  }
  RunningStats copy = RunningStats::FromRaw(original.raw());
  EXPECT_EQ(copy.count(), original.count());
  EXPECT_EQ(copy.mean(), original.mean());
  EXPECT_EQ(copy.variance(), original.variance());
  EXPECT_EQ(copy.min(), original.min());
  EXPECT_EQ(copy.max(), original.max());
  // And continues exactly where the original left off.
  for (int i = 0; i < 100; ++i) {
    const double x = rng.NextExponential(Duration::Hours(2.0)).hours();
    original.Add(x);
    copy.Add(x);
  }
  EXPECT_EQ(copy.mean(), original.mean());
  EXPECT_EQ(copy.variance(), original.variance());
}

}  // namespace
}  // namespace longstore
