// Protocol version 4: every shard cell is a trial range [a, b) and every
// result cell is a piece of trials — a prefix piece ships its blocks
// pre-folded, any other piece ships the canonical block-partition
// accumulators. The merger folds a cell's pieces in trial order onto its
// prior accumulator once they tile the planned range, and the fold must be
// byte-identical to the single-process run under every seed mode — plus
// the strict-rejection catalogue for every way a piece set can fail to be a
// tiling.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/scenario/scenario.h"
#include "src/shard/shard.h"
#include "src/sweep/accumulator.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

SweepSpec RangeSpec() {
  SweepSpec spec(ScenarioBuilder()
                     .Replicas(2, ReplicaSpec()
                                      .FaultTimes(Duration::Hours(400.0),
                                                  Duration::Hours(200.0))
                                      .RepairTimes(Duration::Hours(10.0),
                                                   Duration::Hours(10.0))
                                      .ScrubWith(ScrubPolicy::Exponential(
                                          Duration::Hours(40.0))))
                     .Build());
  spec.AddAxis("mv_hours");
  for (const double hours : {400.0, 800.0}) {
    spec.AddPoint(std::to_string(static_cast<int>(hours)), hours,
                  [hours](Scenario& scenario) {
                    for (ReplicaSpec& replica : scenario.replicas) {
                      replica.mv = Duration::Hours(hours);
                    }
                  });
  }
  return spec;
}

SweepOptions RangeOptions() {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.seed_mode = SweepOptions::SeedMode::kCounterV1;
  options.mc.trials = 1000;
  options.mc.seed = 77;
  return options;
}

// The canonical whole-sweep shard (every cell over [0, 1000)), the base
// every test derives its range shards from.
ShardSpec BaseShard(const SweepOptions& options = RangeOptions()) {
  return ShardPlan(RangeSpec(), options, 1).shards().front();
}

// A shard owning only the listed (cell index, range) slices. Cells absent
// from `parts` are simply not in the shard — the protocol's way of saying
// "someone else runs those trials".
ShardSpec Slice(const std::vector<std::pair<size_t, ShardCellRange>>& parts,
                const SweepOptions& options = RangeOptions()) {
  const ShardSpec base = BaseShard(options);
  ShardSpec shard = base;
  shard.shard_count = 2;
  shard.cells.clear();
  shard.ranges.clear();
  for (const auto& [index, range] : parts) {
    shard.cells.push_back(base.cells[index]);
    shard.ranges.push_back(range);
  }
  return shard;
}

TEST(ShardRangeTest, SpecRangesSurviveTheJsonRoundTrip) {
  ShardSpec shard = BaseShard();
  shard.ranges = {{0, 1000}, {256, 768}};
  const std::string json = shard.ToJson();
  const ShardSpec parsed = ShardSpec::FromJson(json);
  ASSERT_EQ(parsed.ranges.size(), 2u);
  EXPECT_EQ(parsed.ranges[0].begin, 0);
  EXPECT_EQ(parsed.ranges[0].end, 1000);
  EXPECT_EQ(parsed.ranges[1].begin, 256);
  EXPECT_EQ(parsed.ranges[1].end, 768);
  // Round-tripping again is a fixed point (canonical form).
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(ShardRangeTest, EveryCellCarriesItsRange) {
  // A whole cell is the range [0, mc.trials); there is no sentinel.
  const std::string json = BaseShard().ToJson();
  const std::string whole = "\"range\":{\"begin\":0,\"end\":1000}";
  const size_t first = json.find(whole);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(json.find(whole, first + 1), std::string::npos);
}

TEST(ShardRangeTest, ToJsonRejectsMismatchedRangeVector) {
  ShardSpec shard = BaseShard();
  shard.ranges = {{0, 512}};  // 1 range, 2 cells
  EXPECT_THROW(shard.ToJson(), std::invalid_argument);
  shard.ranges.clear();
  EXPECT_THROW(shard.ToJson(), std::invalid_argument);
}

// The one partition rule: whole cells round-robin, unless a round of
// kMttdl cells has fewer cells than shards — then each cell's range is cut
// at block boundaries over distinct shards. Mission-bounded cells stay
// whole, because their non-prefix chunks can cost more to ship than to run.
TEST(ShardRangeTest, PartitionSplitsOnlyFewCellsThatRunToDataLoss) {
  const std::vector<ShardSpec> split = ShardPlan(RangeSpec(), RangeOptions(), 3).shards();
  ASSERT_EQ(split.size(), 3u);
  std::vector<std::vector<ShardCellRange>> chunks(2);
  for (const ShardSpec& shard : split) {
    EXPECT_EQ(shard.cells.size(), 2u) << "shard " << shard.shard_index;
    for (size_t i = 0; i < shard.cells.size(); ++i) {
      chunks[shard.cells[i].index].push_back(shard.ranges[i]);
    }
  }
  for (std::vector<ShardCellRange>& cell : chunks) {
    std::sort(cell.begin(), cell.end(),
              [](const ShardCellRange& a, const ShardCellRange& b) {
                return a.begin < b.begin;
              });
    ASSERT_EQ(cell.size(), 3u);
    EXPECT_EQ(cell.front().begin, 0);
    EXPECT_EQ(cell.back().end, 1000);
    for (size_t c = 1; c < cell.size(); ++c) {
      EXPECT_EQ(cell[c].begin, cell[c - 1].end);
      EXPECT_EQ(cell[c].begin % 256, 0);
    }
  }

  SweepOptions loss = RangeOptions();
  loss.estimand = SweepOptions::Estimand::kLossProbability;
  loss.mission = Duration::Years(5.0);
  const std::vector<ShardSpec> whole = ShardPlan(RangeSpec(), loss, 3).shards();
  ASSERT_EQ(whole.size(), 3u);
  for (size_t s = 0; s < 2; ++s) {
    ASSERT_EQ(whole[s].cells.size(), 1u);
    EXPECT_EQ(whole[s].cells[0].index, s);
    EXPECT_EQ(whole[s].ranges[0].begin, 0);
    EXPECT_EQ(whole[s].ranges[0].end, 1000);
  }
  EXPECT_TRUE(whole[2].cells.empty());
}

TEST(ShardRangeTest, ResultPiecesSurviveTheJsonRoundTrip) {
  const ShardResult result =
      RunShard(Slice({{0, {512, 1000}}, {1, {0, 1000}}}));
  ASSERT_EQ(result.cells.size(), 2u);
  const std::string json = result.ToJson();
  const ShardResult parsed = ShardResult::FromJson(json);
  ASSERT_EQ(parsed.cells.size(), 2u);
  EXPECT_EQ(parsed.cells[0].index, 0u);
  EXPECT_EQ(parsed.cells[0].trial_begin, 512);
  EXPECT_EQ(parsed.cells[0].trial_end, 1000);
  EXPECT_EQ(parsed.cells[0].blocks.size(), 2u);  // [512,768) [768,1000)
  EXPECT_EQ(parsed.cells[1].trial_begin, 0);
  EXPECT_EQ(parsed.cells[1].blocks.size(), 1u);  // the prefix rule
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(ShardRangeTest, PieceMergeIsByteIdenticalToSingleProcess) {
  const std::string expected =
      SweepRunner().Run(RangeSpec(), RangeOptions()).ToJson();

  // Cell 0 split [0,512)+[512,1000) across two shards; cell 1 runs whole
  // beside the first piece.
  const ShardSpec a = Slice({{0, {0, 512}}, {1, {0, 1000}}});
  const ShardSpec b = Slice({{0, {512, 1000}}});
  const ShardResult first = RunShard(a);
  const ShardResult second = RunShard(b);
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "second,first" : "first,second");
    ShardMerger merger({a, b});
    merger.Add(reversed ? second : first, "a");
    EXPECT_FALSE(merger.complete());
    merger.Add(reversed ? first : second, "b");
    ASSERT_TRUE(merger.complete());
    EXPECT_EQ(merger.Finish().ToJson(), expected);
  }
}

TEST(ShardRangeTest, TilingsMergeByteIdenticallyUnderEverySeedMode) {
  // Both cells split three ways, serialized through the wire format and
  // merged in an order that interleaves the two cells' pieces — for every
  // seed mode and estimand: trial ranges need only per-trial seeding.
  using Estimand = SweepOptions::Estimand;
  using SeedMode = SweepOptions::SeedMode;
  for (const SeedMode mode : {SeedMode::kPerCellDerived, SeedMode::kSharedRoot,
                              SeedMode::kScenarioDerived, SeedMode::kCounterV1}) {
    for (const Estimand estimand :
         {Estimand::kMttdl, Estimand::kLossProbability, Estimand::kCensoredMttdl,
          Estimand::kWeightedLossProbability}) {
      SCOPED_TRACE(::testing::Message() << "seed mode " << static_cast<int>(mode)
                                        << ", estimand "
                                        << static_cast<int>(estimand));
      SweepOptions options = RangeOptions();
      options.seed_mode = mode;
      options.estimand = estimand;
      options.mission = Duration::Years(1.0);
      options.window = Duration::Years(1.0);
      if (estimand == Estimand::kWeightedLossProbability) {
        options.bias.theta_visible = 4.0;
        options.bias.theta_latent = 4.0;
        options.bias.tilt_probability = 0.5;
        options.bias.force_probability = 0.2;
      }
      const std::vector<ShardSpec> plan = {
          Slice({{0, {0, 512}}, {1, {768, 1000}}}, options),
          Slice({{0, {512, 768}}, {1, {0, 512}}}, options),
          Slice({{0, {768, 1000}}, {1, {512, 768}}}, options)};
      ShardMerger merger(plan);
      for (size_t k = plan.size(); k-- > 0;) {
        merger.AddJson(RunShard(ShardSpec::FromJson(plan[k].ToJson())).ToJson(),
                       "unit" + std::to_string(k));
      }
      ASSERT_TRUE(merger.complete());
      EXPECT_EQ(merger.Finish().ToJson(),
                SweepRunner().Run(RangeSpec(), options).ToJson());
    }
  }
}

TEST(ShardRangeTest, MergerFoldsARoundOntoThePriorAccumulators) {
  // A later round: trials [512, 1000) of both cells, split mid-cell, folded
  // onto the executions of an in-process run of the first 512 trials — the
  // result equals the in-process 1000-trial run, one round later.
  SweepOptions first_round = RangeOptions();
  first_round.mc.trials = 512;
  const std::vector<SweepSpec::Cell> cells = RangeSpec().BuildCells();
  WorkerPool& pool = SweepRunner().pool();
  std::vector<SweepCellExecution> prior = RunSweepCells(pool, cells, first_round);
  const std::vector<SweepCellExecution> expected =
      RunSweepCells(pool, cells, RangeOptions());

  const std::vector<ShardSpec> round = {Slice({{0, {512, 768}}, {1, {768, 1000}}}),
                                        Slice({{0, {768, 1000}}, {1, {512, 768}}})};
  EXPECT_THROW(ShardMerger{round}, std::invalid_argument);  // no prior state
  ShardMerger merger(round, prior);
  for (const ShardSpec& shard : round) {
    merger.Add(RunShard(shard));
  }
  ASSERT_TRUE(merger.complete());
  const std::vector<SweepCellExecution> merged = merger.TakeExecutions();
  ASSERT_EQ(merged.size(), expected.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    std::string merged_json;
    std::string expected_json;
    AppendTrialAccumulatorJson(merged_json, merged[i].acc);
    AppendTrialAccumulatorJson(expected_json, expected[i].acc);
    EXPECT_EQ(merged_json, expected_json);
    EXPECT_EQ(merged[i].trials, 1000);
    EXPECT_EQ(merged[i].rounds, 2);
  }

  // A prior that does not end where the round starts is refused.
  prior[0].trials = 256;
  EXPECT_THROW(ShardMerger(round, prior), std::invalid_argument);
}

TEST(ShardRangeTest, RunShardRejectsAdaptiveSpecs) {
  // Adaptive sweeps run round by round under a coordinator; a worker only
  // runs fixed ranges, whole cells included.
  ShardSpec shard = BaseShard();
  shard.options.adaptive = true;
  shard.options.relative_precision = 0.1;
  shard.options.max_trials = 10000;
  try {
    RunShard(shard);
    FAIL() << "ran an adaptive shard";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("adaptive"), std::string::npos) << e.what();
  }
}

TEST(ShardRangeTest, RunShardRejectsRangeBeyondTrialCount) {
  ShardSpec shard = BaseShard();
  shard.ranges[0] = {0, 1001};
  EXPECT_THROW(RunShard(shard), std::invalid_argument);
}

// --- merger rejection catalogue -------------------------------------------

void ExpectAddRejects(ShardMerger& merger, ShardResult result,
                      const std::string& needle) {
  try {
    merger.Add(std::move(result), "doctored");
    FAIL() << "expected rejection mentioning \"" << needle << "\"";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(ShardRangeTest, MergerRejectsOverlappingPieces) {
  {
    ShardMerger merger({BaseShard()});
    merger.Add(RunShard(Slice({{0, {0, 512}}})), "a");
    ExpectAddRejects(merger, RunShard(Slice({{0, {256, 1000}}})),
                     "trials [256, 512) arrived twice: first from shard 0 (a)");
  }
  {
    // A whole cell after a piece of it, and a piece after the whole cell.
    ShardMerger merger({BaseShard()});
    merger.Add(RunShard(Slice({{0, {0, 512}}})), "a");
    ExpectAddRejects(merger, RunShard(Slice({{0, {0, 1000}}})), "arrived twice");
    merger.Add(RunShard(Slice({{1, {0, 1000}}})), "b");
    ExpectAddRejects(merger, RunShard(Slice({{1, {512, 1000}}})),
                     "arrived twice");
  }
}

TEST(ShardRangeTest, MergerRejectsUnalignedSeams) {
  // [0,300)+[300,1000) is a valid tiling of trials but its interior seam is
  // not block-aligned, so the shipped blocks cannot reproduce the canonical
  // partition; the merger must refuse rather than fold approximately.
  ShardMerger merger({BaseShard()});
  ExpectAddRejects(merger, RunShard(Slice({{0, {0, 300}}})), "aligned");
  ExpectAddRejects(merger, RunShard(Slice({{0, {300, 1000}}})), "aligned");
}

TEST(ShardRangeTest, MergerRejectsWrongAccumulatorCount) {
  ShardMerger merger({BaseShard()});
  ShardResult doctored = RunShard(Slice({{0, {512, 1000}}}));
  ASSERT_EQ(doctored.cells[0].blocks.size(), 2u);
  doctored.cells[0].blocks.pop_back();
  ExpectAddRejects(merger, std::move(doctored), "accumulators");
}

TEST(ShardRangeTest, MergerRejectsPiecesOutsideThePlannedRound) {
  // The plan gives cell 0 trials [0, 512) and cell 1 nothing.
  ShardMerger merger({Slice({{0, {0, 512}}})});
  ExpectAddRejects(merger, RunShard(Slice({{0, {512, 1000}}})),
                   "reach outside the planned trials [0, 512)");
  ExpectAddRejects(merger, RunShard(Slice({{1, {0, 512}}})),
                   "cell 1 has no trials planned");
  ShardResult relabelled = RunShard(Slice({{0, {0, 512}}}));
  relabelled.cells[0].label = "other";
  ExpectAddRejects(merger, std::move(relabelled), "arrived labelled \"other\"");
}

}  // namespace
}  // namespace longstore
