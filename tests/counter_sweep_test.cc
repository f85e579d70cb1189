// SeedMode::kCounterV1 execution contract (src/sweep/sweep.h):
//
//   * the batched SoA kernel (block prefilter + RunCounter) must fold to
//     exactly the accumulator of a naive per-trial RunCounter loop under
//     every estimand — the prefilter is an optimization, never an
//     approximation;
//   * RunCellTrialRanges over any contiguous block-aligned tiling of
//     [0, N) must concatenate to the whole-run block list bit for bit, under
//     every seed mode (the primitive behind shards and fleet rounds);
//   * RunSweepCells from a prior continues an adaptive run byte-identically
//     to a cold run at the tighter precision;
//   * the prefilter's verdicts are pinned on the archival grid, and its
//     integer-domain rule (ReplicatedStorageSystem::HorizonVerdict) equals
//     the exact log-based rule at its edges and inside the kernel.
//
// Byte-identity is asserted through AppendTrialAccumulatorJson, the same
// exact serialization the shard protocol ships, so "equal bytes here" is
// precisely "equal bytes on the wire".

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/scenario/scenario.h"
#include "src/storage/replicated_system.h"
#include "src/sweep/accumulator.h"
#include "src/sweep/sweep.h"
#include "src/sweep/worker_pool.h"
#include "src/util/json.h"
#include "src/util/random.h"

namespace longstore {
namespace {

std::string AccJson(const TrialAccumulator& acc) {
  std::string out;
  AppendTrialAccumulatorJson(out, acc);
  return out;
}

// A grid that exercises the draw paths the prefilter has to model exactly:
// exponential and Weibull fault times, a non-zero initial age, exponential
// scrubbing, and a correlated cell.
SweepSpec VariedSpec() {
  SweepSpec spec(ScenarioBuilder()
                     .Replicas(2, ReplicaSpec()
                                      .FaultTimes(Duration::Hours(400.0),
                                                  Duration::Hours(200.0))
                                      .RepairTimes(Duration::Hours(10.0),
                                                   Duration::Hours(10.0))
                                      .ScrubWith(ScrubPolicy::Exponential(
                                          Duration::Hours(40.0))))
                     .Build());
  spec.AddAxis("variant");
  spec.AddPoint("exponential", 0.0, [](Scenario&) {});
  spec.AddPoint("weibull_aged", 1.0, [](Scenario& scenario) {
    for (ReplicaSpec& replica : scenario.replicas) {
      replica.Weibull(1.4).InitialAge(Duration::Hours(120.0));
    }
  });
  spec.AddPoint("correlated", 2.0,
                [](Scenario& scenario) { scenario.alpha = 0.3; });
  return spec;
}

SweepOptions CounterOptions(SweepOptions::Estimand estimand, int64_t trials) {
  SweepOptions options;
  options.estimand = estimand;
  options.seed_mode = SweepOptions::SeedMode::kCounterV1;
  options.mc.trials = trials;
  options.mc.seed = 4242;
  return options;
}

// Ground truth: a naive per-trial loop over TrialRunner::RunCounter — no
// prefilter, no lanes — folded with the same block structure the engine
// uses (one accumulator per 256-trial block, blocks merged in trial order).
// Welford folds are not bitwise-associative, so the block structure is part
// of the determinism contract, not an implementation detail. A weighted
// sweep's runner carries a sampler for the sweep's bias even when it is the
// identity, which the engine runs without one, so the fold also proves that
// dropping an identity sampler moves no bit.
TrialAccumulator PerTrialFold(const SweepSpec::Cell& cell,
                              const SweepOptions& options) {
  using Estimand = SweepOptions::Estimand;
  const uint64_t key = SweepCellSeed(options, cell);
  Duration horizon = options.mission;
  if (options.estimand == Estimand::kMttdl) {
    horizon = options.mc.max_trial_time;
  } else if (options.estimand == Estimand::kCensoredMttdl) {
    horizon = options.window;
  }
  const std::unique_ptr<TrialRunner> runner =
      options.estimand == Estimand::kWeightedLossProbability
          ? std::make_unique<TrialRunner>(cell.scenario, ConfigValidation::kValidate,
                                          options.bias)
          : std::make_unique<TrialRunner>(cell.scenario);
  TrialAccumulator folded;
  for (int64_t block_begin = 0; block_begin < options.mc.trials;
       block_begin += kTrialBlockSize) {
    const int64_t block_end =
        std::min<int64_t>(block_begin + kTrialBlockSize, options.mc.trials);
    TrialAccumulator acc;
    for (int64_t t = block_begin; t < block_end; ++t) {
      const RunOutcome outcome =
          runner->RunCounter(key, static_cast<uint64_t>(t), horizon);
      switch (options.estimand) {
        case Estimand::kMttdl:
          if (outcome.loss_time) {
            acc.loss_years.Add(outcome.loss_time->years());
          } else {
            acc.censored++;
          }
          break;
        case Estimand::kLossProbability:
          if (outcome.loss_time) {
            acc.losses++;
          }
          break;
        case Estimand::kCensoredMttdl:
          if (outcome.loss_time) {
            acc.losses++;
            acc.observed_years += outcome.loss_time->years();
          } else {
            acc.observed_years += horizon.years();
          }
          break;
        case Estimand::kWeightedLossProbability:
          if (outcome.loss_time) {
            acc.losses++;
            acc.weighted.Add(std::exp(outcome.log_weight));
          } else {
            acc.weighted.Add(0.0);
          }
          break;
      }
      acc.metrics.Merge(outcome.metrics);
    }
    folded.MergeFrom(acc);
  }
  return folded;
}

// The skip bytes (0 or 1, in trial order) the batched kernel sees for trials
// [0, trials) of one cell, asked for in the sweep's 256-trial blocks.
std::string PrefilterSkipBytes(const Scenario& scenario, uint64_t key,
                               Duration horizon, int64_t trials) {
  TrialRunner runner(scenario);
  std::string bytes;
  uint8_t skip[kTrialPrefilterMaxBlock];
  for (int64_t begin = 0; begin < trials; begin += kTrialPrefilterMaxBlock) {
    const int count = static_cast<int>(
        std::min<int64_t>(kTrialPrefilterMaxBlock, trials - begin));
    if (!runner.PrefilterCensoredBlock(key, begin, count, horizon, skip)) {
      ADD_FAILURE() << "prefilter declined block " << begin;
      return bytes;
    }
    for (int i = 0; i < count; ++i) {
      bytes.push_back(static_cast<char>(skip[i]));
    }
  }
  return bytes;
}

// Every estimand, the weighted one under the identity FaultBias{}. The
// 30-hour mission and window let the prefilter skip some of each cell's
// trials and run the rest, which lose data or survive, so every censored
// fold is checked against trials the engine ran.
TEST(CounterSweepTest, BatchedKernelMatchesPerTrialRunCounterFold) {
  using Estimand = SweepOptions::Estimand;
  std::vector<SweepSpec::Cell> cells = VariedSpec().BuildCells();
  ValidateSweepCells(cells);
  const std::pair<Estimand, const char*> estimands[] = {
      {Estimand::kMttdl, "mttdl"},
      {Estimand::kLossProbability, "loss_probability"},
      {Estimand::kCensoredMttdl, "censored_mttdl"},
      {Estimand::kWeightedLossProbability, "weighted_loss_probability"}};
  for (const auto& [estimand, name] : estimands) {
    SweepOptions options = CounterOptions(estimand, 600);
    options.mission = Duration::Hours(30.0);
    options.window = Duration::Hours(30.0);
    ValidateSweepOptions(options);
    ASSERT_TRUE(options.bias.is_identity());
    const std::vector<SweepCellExecution> executions =
        RunSweepCells(SweepRunner().pool(), cells, options);
    ASSERT_EQ(executions.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      SCOPED_TRACE(std::string(name) + " " + cells[i].label);
      EXPECT_EQ(AccJson(executions[i].acc),
                AccJson(PerTrialFold(cells[i], options)));
      EXPECT_EQ(executions[i].trials, options.mc.trials);
      if (estimand != Estimand::kMttdl) {
        const std::string skips =
            PrefilterSkipBytes(cells[i].scenario, SweepCellSeed(options, cells[i]),
                               options.mission, options.mc.trials);
        const auto skipped = std::count(skips.begin(), skips.end(), 1);
        EXPECT_GT(skipped, 0);
        EXPECT_LT(skipped, options.mc.trials);
      }
    }
  }
}

TEST(CounterSweepTest, PrefilterSkipsAreExactlyCensoredTrials) {
  // Long MTBFs against a short mission: almost every trial has no event
  // inside the horizon, so the block prefilter short-circuits nearly the
  // whole sweep. The per-trial loop actually runs the engine for each
  // trial, so any prefilter divergence — a wrongly skipped trial, a wrong
  // censored outcome, an unmerged metric — breaks byte-identity here.
  SweepSpec spec(ScenarioBuilder()
                     .Replicas(3, ReplicaSpec()
                                      .FaultTimes(Duration::Hours(5e7),
                                                  Duration::Hours(2e7))
                                      .RepairTimes(Duration::Hours(10.0),
                                                   Duration::Hours(10.0))
                                      .ScrubWith(ScrubPolicy::Exponential(
                                          Duration::Hours(2e6))))
                     .Build());
  spec.AddAxis("mv_hours");
  for (const double hours : {5e7, 2e5}) {
    spec.AddPoint(std::to_string(hours), hours, [hours](Scenario& scenario) {
      for (ReplicaSpec& replica : scenario.replicas) {
        replica.mv = Duration::Hours(hours);
      }
    });
  }
  SweepOptions options =
      CounterOptions(SweepOptions::Estimand::kLossProbability, 1000);
  options.mission = Duration::Years(5.0);
  std::vector<SweepSpec::Cell> cells = spec.BuildCells();
  ValidateSweepOptions(options);
  ValidateSweepCells(cells);
  const std::vector<SweepCellExecution> executions =
      RunSweepCells(SweepRunner().pool(), cells, options);
  ASSERT_EQ(executions.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].label);
    EXPECT_EQ(AccJson(executions[i].acc), AccJson(PerTrialFold(cells[i], options)));
  }
}

// The archival loss grid of the perfbench archive_fleet workload: long fault
// means against a 5-year mission, so the prefilter decides ~99% of trials.
// The fold tests above cannot see a lost skip — a trial wrongly left
// unskipped runs and comes out censored anyway — so these pins fix every
// verdict. A libm change could move one only for a draw within a few ULPs of
// its threshold, so they are enforced on every toolchain.
TEST(CounterSweepTest, ArchivalPrefilterVerdictsArePinned) {
  SweepSpec spec(ScenarioBuilder()
                     .Replicas(2, ReplicaSpec()
                                      .FaultTimes(Duration::Hours(5e7),
                                                  Duration::Hours(2e7))
                                      .RepairTimes(Duration::Hours(10.0),
                                                   Duration::Hours(10.0)))
                     .Build());
  spec.AddAxis("replicas");
  for (const int replicas : {2, 3}) {
    spec.AddPoint(std::to_string(replicas), replicas,
                  [replicas](Scenario& scenario) {
                    scenario.replicas.resize(replicas, scenario.replicas[0]);
                  });
  }
  spec.AddAxis("scrub_mean_hours");
  for (const double hours : {1e6, 2e6}) {
    spec.AddPoint(hours == 1e6 ? "1e6" : "2e6", hours,
                  [hours](Scenario& scenario) {
                    for (ReplicaSpec& replica : scenario.replicas) {
                      replica.scrub =
                          ScrubPolicy::Exponential(Duration::Hours(hours));
                    }
                  });
  }
  SweepOptions options =
      CounterOptions(SweepOptions::Estimand::kLossProbability, 25000);
  options.mission = Duration::Years(5.0);
  options.mc.seed = 1;

  struct Pin {
    uint64_t canonical_hash;
    int64_t skipped;
    uint64_t skip_bytes_hash;
  };
  const Pin pins[] = {
      {0xa726209b6037caadULL, 24832, 0xcd4df5bb2e5dee2dULL},  // 2, 1e6
      {0xa4c47d4916938431ULL, 24842, 0xcdb2eb87f83ac34bULL},  // 2, 2e6
      {0x8ce6ccf584dc50a2ULL, 24773, 0x9b6aea2fff31e78cULL},  // 3, 1e6
      {0xfaa55eacd746c11dULL, 24767, 0xbe306c52d0a93cb6ULL},  // 3, 2e6
  };
  const std::vector<SweepSpec::Cell> cells = spec.BuildCells();
  ASSERT_EQ(cells.size(), std::size(pins));
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].label);
    EXPECT_EQ(cells[i].scenario.CanonicalHash(), pins[i].canonical_hash);
    const std::string bytes =
        PrefilterSkipBytes(cells[i].scenario, SweepCellSeed(options, cells[i]),
                           options.mission, options.mc.trials);
    ASSERT_EQ(static_cast<int64_t>(bytes.size()), options.mc.trials);
    EXPECT_EQ(std::count(bytes.begin(), bytes.end(), '\1'), pins[i].skipped);
    EXPECT_EQ(json::Fnv1a64(bytes), pins[i].skip_bytes_hash);
  }
}

// The exact verdict the integer rule must reproduce: the engine's delay
// arithmetic for one exponential draw (Rng::NextDoubleOpen, then
// NextExponential) compared with the horizon.
bool ExactExponentialOutlasts(uint64_t k, double mean_hours,
                              double horizon_hours) {
  const double u = (static_cast<double>(k) + 1.0) * 0x1.0p-53;
  return -std::log(u) * mean_hours > horizon_hours;
}

TEST(CounterSweepTest, HorizonVerdictMatchesExactRuleAtItsEdges) {
  constexpr uint64_t kMaxDraw = (uint64_t{1} << 53) - 1;
  constexpr uint64_t kReach = 4096;
  std::vector<std::pair<double, double>> pairs;  // (mean, horizon) hours
  for (const double mean : {1e-3, 1.0, 8760.0, 5e7, 1e12}) {
    for (int e = -64; e <= 48; ++e) {  // H/m from 1e-8 to 1e6, 8 per decade
      pairs.emplace_back(mean, mean * std::pow(10.0, e / 8.0));
    }
    // exp(-H/m) within 2^-40 of 1; around 2^-53, where lo reaches 0;
    // subnormal; underflowed to 0.
    for (const double ratio : {0x1.0p-41, 0x1.0p-45, 0x1.0p-52, 36.0, 36.7,
                               36.74, 36.75, 37.0, 720.0, 745.0, 800.0}) {
      pairs.emplace_back(mean, mean * ratio);
    }
  }
  Rng rng(20061);
  for (int i = 0; i < 64; ++i) {
    const double mean = std::pow(10.0, -3.0 + 15.0 * rng.NextDouble());
    pairs.emplace_back(mean, mean * std::pow(10.0, -8.0 + 14.0 * rng.NextDouble()));
  }

  int64_t mismatches = 0;
  for (const auto& [mean, horizon] : pairs) {
    const ReplicatedStorageSystem::HorizonVerdict verdict(mean, horizon);
    ASSERT_LE(verdict.lo(), verdict.hi());
    ASSERT_LE(verdict.hi(), kMaxDraw);
    // The guard band holds about 2^-19 of all draws.
    EXPECT_LE(verdict.hi() - verdict.lo(), (uint64_t{1} << 34) + 2)
        << "m=" << mean << " H=" << horizon;
    const auto check = [&](uint64_t k) {
      if (verdict.Outlasts(k) != ExactExponentialOutlasts(k, mean, horizon) &&
          ++mismatches <= 10) {
        ADD_FAILURE() << "m=" << mean << " H=" << horizon << " k=" << k;
      }
    };
    for (const uint64_t edge : {verdict.lo(), verdict.hi()}) {
      const uint64_t last = std::min(edge + kReach, kMaxDraw);
      for (uint64_t k = edge > kReach ? edge - kReach : 0; k <= last; ++k) {
        check(k);
      }
    }
    for (int i = 0; i < 64; ++i) {
      check(rng.Next() >> 11);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// The prefilter's skip rule before it moved to the integer domain: map every
// initial draw through the engine's delay arithmetic and skip the trial iff
// the earliest delay lands strictly after the horizon.
bool MinDelaySkip(const std::vector<ReplicatedStorageSystem::InitialDrawSite>& sites,
                  uint64_t key, uint64_t trial, double horizon_hours) {
  double min_delay_hours = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < sites.size(); ++j) {
    const ReplicatedStorageSystem::InitialDrawSite& site = sites[j];
    const uint64_t bits = CounterMix(key, trial, j);
    const double u = (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
    double delay = 0.0;
    if (site.weibull) {
      const double life =
          std::pow(site.age0_pow_shape - std::log(u), site.inv_shape);
      delay = (life - site.age0) * site.scale_hours;
      if (!(delay > 0.0) || delay == std::numeric_limits<double>::infinity()) {
        delay = 1e-9;
      }
    } else {
      delay = -std::log(u) * site.mean_hours;
    }
    min_delay_hours = std::min(min_delay_hours, delay);
  }
  return min_delay_hours > horizon_hours;
}

TEST(CounterSweepTest, PrefilterVerdictsMatchMinDelayRuleWhenBothAreCommon) {
  // Means near the 5-year mission, so 5-95% of trials are skipped and both
  // verdicts are common at every site.
  const ReplicaSpec exponential =
      ReplicaSpec()
          .FaultTimes(Duration::Hours(4e5), Duration::Hours(2e5))
          .RepairTimes(Duration::Hours(10.0), Duration::Hours(10.0))
          .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(1e5)));
  ReplicaSpec weibull = exponential;
  weibull.Weibull(1.4).InitialAge(Duration::Hours(1e4));
  const std::pair<const char*, Scenario> cells[] = {
      {"physical", ScenarioBuilder().Replicas(2, exponential).Build()},
      {"common_mode", ScenarioBuilder()
                          .Replicas(2, exponential)
                          .CommonModeAll("machine room", Rate::PerYear(0.1))
                          .Build()},
      {"weibull_mixed",
       ScenarioBuilder().AddReplica(exponential).AddReplica(weibull).Build()},
  };
  const Duration horizon = Duration::Years(5.0);
  constexpr int64_t kTrials = 4000;  // 15 full blocks and a partial one
  for (size_t c = 0; c < std::size(cells); ++c) {
    SCOPED_TRACE(cells[c].first);
    const uint64_t key = DeriveSeed(77, c);
    const std::string bytes =
        PrefilterSkipBytes(cells[c].second, key, horizon, kTrials);
    ASSERT_EQ(static_cast<int64_t>(bytes.size()), kTrials);
    const TrialRunner runner(cells[c].second);
    const auto& sites = runner.system().initial_draw_sites();
    int64_t skipped = 0;
    for (int64_t t = 0; t < kTrials; ++t) {
      const bool expected =
          MinDelaySkip(sites, key, static_cast<uint64_t>(t), horizon.hours());
      ASSERT_EQ(bytes[static_cast<size_t>(t)] != 0, expected) << "trial " << t;
      skipped += expected ? 1 : 0;
    }
    EXPECT_GE(skipped, kTrials / 20);
    EXPECT_LE(skipped, kTrials - kTrials / 20);
  }
}

TEST(CounterSweepTest, TrialRangeTilingIsByteIdenticalToWholeRun) {
  // Trial ranges need only per-trial seeding, which every seed mode has, so
  // the tiling contract holds under each mode and estimand (tilted IS
  // included), not just under the counter generator.
  std::vector<SweepSpec::Cell> cells = VariedSpec().BuildCells();
  ValidateSweepCells(cells);
  WorkerPool& pool = SweepRunner().pool();
  const SweepSpec::Cell& cell = cells[1];  // the Weibull + initial-age cell
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
      SweepOptions options = CounterOptions(estimand, 1000);
      options.seed_mode = mode;
      options.mission = Duration::Years(5.0);
      options.window = Duration::Years(5.0);
      if (estimand == Estimand::kWeightedLossProbability) {
        options.bias.theta_visible = 4.0;
        options.bias.theta_latent = 4.0;
        options.bias.tilt_probability = 0.5;
        options.bias.force_probability = 0.2;
      }
      ValidateSweepOptions(options);
      const auto run = [&](std::vector<CellTrialRange> ranges) {
        return RunCellTrialRanges(pool, ranges, options);
      };

      const std::vector<TrialAccumulator> whole = run({{&cell, 0, 1000}})[0];
      // blocks [0,256) [256,512) [512,768) [768,1000)
      ASSERT_EQ(whole.size(), 4u);
      // The whole-range fold is the in-process runner's accumulator.
      TrialAccumulator folded;
      for (const TrialAccumulator& block : whole) {
        folded.MergeFrom(block);
      }
      EXPECT_EQ(AccJson(folded), AccJson(RunSweepCells(pool, {cell}, options)[0].acc));

      // A block-aligned split — two ranges of one batch — reproduces the
      // whole-run block list verbatim.
      const std::vector<std::vector<TrialAccumulator>> split =
          run({{&cell, 0, 512}, {&cell, 512, 1000}});
      ASSERT_EQ(split[0].size() + split[1].size(), whole.size());
      for (size_t b = 0; b < whole.size(); ++b) {
        const TrialAccumulator& part =
            b < split[0].size() ? split[0][b] : split[1][b - split[0].size()];
        EXPECT_EQ(AccJson(part), AccJson(whole[b])) << "block " << b;
      }

      // An *unaligned* range start is allowed (adaptive continuation rounds
      // begin wherever the previous round stopped): the first block is the
      // partial span up to the next boundary, then the partition realigns
      // to absolute trial indices. A Welford fold across an unaligned seam
      // is NOT bit-identical to the aligned fold — which is exactly why the
      // merger rejects unaligned interior seams — so here we only pin the
      // partition shape and the exact trial coverage.
      const std::vector<std::vector<TrialAccumulator>> seam =
          run({{&cell, 0, 300}, {&cell, 300, 1000}});
      const std::vector<TrialAccumulator>& head = seam[0];
      const std::vector<TrialAccumulator>& tail = seam[1];
      ASSERT_EQ(head.size(), 2u);  // [0,256) [256,300)
      ASSERT_EQ(tail.size(), 3u);  // [300,512) [512,768) [768,1000)
      if (estimand == Estimand::kMttdl) {
        EXPECT_EQ(head[1].loss_years.count() + head[1].censored, 44);
        EXPECT_EQ(tail[0].loss_years.count() + tail[0].censored, 212);
      }
      // Blocks untouched by the unaligned seam are verbatim whole-run blocks.
      EXPECT_EQ(AccJson(head[0]), AccJson(whole[0]));
      EXPECT_EQ(AccJson(tail[1]), AccJson(whole[2]));
      EXPECT_EQ(AccJson(tail[2]), AccJson(whole[3]));
    }
  }
}

TEST(CounterSweepTest, ResumeTighterPrecisionIsByteIdenticalToColdRun) {
  std::vector<SweepSpec::Cell> cells = VariedSpec().BuildCells();
  SweepOptions loose = CounterOptions(SweepOptions::Estimand::kMttdl, 256);
  loose.adaptive = true;
  loose.relative_precision = 0.5;
  loose.max_trials = 16384;
  SweepOptions tight = loose;
  tight.relative_precision = 0.08;

  ValidateSweepOptions(tight);
  ValidateSweepCells(cells);
  WorkerPool& pool = SweepRunner().pool();
  const std::vector<SweepCellExecution> cold = RunSweepCells(pool, cells, tight);
  std::vector<SweepCellExecution> prior = RunSweepCells(pool, cells, loose);
  const std::vector<SweepCellExecution> resumed =
      RunSweepCells(pool, cells, tight, std::move(prior));

  ASSERT_EQ(resumed.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE(cold[i].label);
    EXPECT_EQ(AccJson(resumed[i].acc), AccJson(cold[i].acc));
    EXPECT_EQ(resumed[i].trials, cold[i].trials);
    EXPECT_EQ(resumed[i].half_width_history, cold[i].half_width_history);
  }
}

}  // namespace
}  // namespace longstore
