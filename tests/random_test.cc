#include "src/util/random.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/stats.h"

namespace longstore {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  uint64_t s1 = 42;
  uint64_t s2 = 42;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(SplitMix64Next(s1), SplitMix64Next(s2));
  }
}

TEST(DeriveSeedTest, DistinctIndicesGiveDistinctSeeds) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 10000; ++i) {
    seeds.insert(DeriveSeed(7, i));
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(DeriveSeedTest, DistinctRootsGiveDistinctStreams) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_NE(DeriveSeed(1, 1), DeriveSeed(2, 1));
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    differing += a.Next() != b.Next() ? 1 : 0;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleOpenNeverZero) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDoubleOpen();
    EXPECT_GT(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedRoughlyUniform) {
  Rng rng(31337);
  constexpr uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) {
    counts[rng.NextBounded(kBound)]++;
  }
  for (uint64_t v = 0; v < kBound; ++v) {
    // Expected 10000 per bucket; 5-sigma band ~ +/- 475.
    EXPECT_NEAR(counts[v], kSamples / static_cast<int>(kBound), 600);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeProbabilities) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMeanAndMemorylessTail) {
  Rng rng(11);
  const Duration mean = Duration::Hours(250.0);
  RunningStats stats;
  int beyond_mean = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const Duration d = rng.NextExponential(mean);
    stats.Add(d.hours());
    beyond_mean += d.hours() > 250.0 ? 1 : 0;
  }
  EXPECT_NEAR(stats.mean(), 250.0, 2.5);
  // P(X > mean) = 1/e.
  EXPECT_NEAR(static_cast<double>(beyond_mean) / kSamples, std::exp(-1.0), 0.005);
}

TEST(RngTest, ExponentialInfiniteMeanNeverFires) {
  Rng rng(12);
  EXPECT_TRUE(rng.NextExponential(Duration::Infinite()).is_infinite());
  EXPECT_TRUE(rng.NextExponential(Rate::Zero()).is_infinite());
}

TEST(RngTest, ExponentialFromRateMatchesFromMean) {
  Rng a(13);
  Rng b(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.NextExponential(Rate::PerHour(0.01)).hours(),
                     b.NextExponential(Duration::Hours(100.0)).hours());
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(21);
  const Duration lo = Duration::Hours(10.0);
  const Duration hi = Duration::Hours(20.0);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const Duration d = rng.NextUniform(lo, hi);
    EXPECT_GE(d.hours(), 10.0);
    EXPECT_LT(d.hours(), 20.0);
    stats.Add(d.hours());
  }
  EXPECT_NEAR(stats.mean(), 15.0, 0.05);
}

// ---------------------------------------------------------------------------
// Edge-case regressions (degenerate sampler parameters).
//
// The invariant under test throughout: a degenerate parameter never produces
// NaN and never desynchronizes the stream — the sampler consumes exactly as
// many draws as it would for a well-formed parameter, so trial replay stays
// aligned across scenario grids where only some cells are degenerate.
// ---------------------------------------------------------------------------

TEST(RngEdgeCaseTest, UniformInvertedRangeReturnsLoAndConsumesOneDraw) {
  Rng rng(91);
  const Duration lo = Duration::Hours(250.0);
  const Duration hi = Duration::Hours(10.0);  // hi < lo: width is negative
  const Duration got = rng.NextUniform(lo, hi);
  EXPECT_EQ(got.hours(), 250.0);

  // The degenerate call must advance the stream exactly one uniform, the
  // same as a well-formed call: a twin that made one well-formed draw is in
  // lockstep afterwards.
  Rng twin(91);
  (void)twin.NextUniform(Duration::Hours(10.0), Duration::Hours(250.0));
  EXPECT_EQ(rng.Next(), twin.Next());
}

TEST(RngEdgeCaseTest, UniformEmptyAndInfiniteRangesReturnLo) {
  Rng rng(92);
  const Duration lo = Duration::Hours(7.0);
  EXPECT_EQ(rng.NextUniform(lo, lo).hours(), 7.0);  // empty range
  EXPECT_EQ(rng.NextUniform(lo, Duration::Infinite()).hours(), 7.0);
  EXPECT_EQ(rng.NextUniform(Duration::Hours(-3.0), Duration::Infinite()).hours(), -3.0);
  // NaN width (inf - inf) must not propagate NaN into event times.
  const Duration nan_width = rng.NextUniform(Duration::Infinite(), Duration::Infinite());
  EXPECT_TRUE(nan_width.is_infinite());
  EXPECT_FALSE(std::isnan(nan_width.hours()));
}

TEST(RngEdgeCaseTest, ExponentialNegativeMeanAssertsOrClamps) {
  EXPECT_DEBUG_DEATH(
      {
        Rng rng(93);
        const Duration d = rng.NextExponential(Duration::Hours(-5.0));
        // Release builds clamp to a zero mean instead of going negative/NaN.
        EXPECT_EQ(d.hours(), 0.0);
        // The clamped call still consumed its one uniform.
        Rng twin(93);
        (void)twin.NextExponential(Duration::Hours(5.0));
        EXPECT_EQ(rng.Next(), twin.Next());
      },
      "mean must be non-negative");
}

TEST(RngEdgeCaseTest, ExponentialInfiniteMeanConsumesNoDraw) {
  // Infinite mean means "this fault class never fires": the sampler must
  // short-circuit without touching the stream, so toggling a fault class to
  // infinity cannot shift every subsequent draw of the trial.
  Rng rng(95);
  Rng twin(95);
  EXPECT_TRUE(rng.NextExponential(Duration::Infinite()).is_infinite());
  EXPECT_EQ(rng.Next(), twin.Next());
}

// ---------------------------------------------------------------------------
// Counter mode (SeedMode::kCounterV1 substrate).
// ---------------------------------------------------------------------------

TEST(CounterMixTest, MatchesRngCounterMode) {
  Rng rng(0);
  rng.ReseedCounter(0xfeedULL, 17);
  for (uint64_t n = 0; n < 100; ++n) {
    EXPECT_EQ(rng.Next(), CounterMix(0xfeedULL, 17, n));
  }
}

TEST(CounterMixTest, ReseedRewindsTheStream) {
  // Seekability is the point: reseeding to the same (key, stream) replays
  // the identical sequence from counter zero.
  Rng rng(0);
  rng.ReseedCounter(5, 6);
  std::vector<uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng.Next());
  rng.ReseedCounter(5, 6);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.Next(), first[i]);
}

TEST(CounterMixTest, SingleBitInputChangesAvalanche) {
  // Flipping any single coordinate must flip roughly half the output bits
  // (Philox avalanche). A weak mix here would correlate adjacent trials.
  const uint64_t base = CounterMix(1, 2, 3);
  int min_flips = 64;
  for (int bit = 0; bit < 64; ++bit) {
    const uint64_t mask = uint64_t{1} << bit;
    min_flips = std::min<int>(min_flips, __builtin_popcountll(base ^ CounterMix(1 ^ mask, 2, 3)));
    min_flips = std::min<int>(min_flips, __builtin_popcountll(base ^ CounterMix(1, 2 ^ mask, 3)));
    min_flips = std::min<int>(min_flips, __builtin_popcountll(base ^ CounterMix(1, 2, 3 ^ mask)));
  }
  EXPECT_GE(min_flips, 12);
}

TEST(CounterMixTest, ReseedSwitchesModesCleanly) {
  // Reseed() after ReseedCounter() must restore xoshiro behavior exactly.
  Rng rng(77);
  std::vector<uint64_t> plain;
  for (int i = 0; i < 8; ++i) plain.push_back(rng.Next());
  rng.ReseedCounter(1, 2);
  (void)rng.Next();
  rng.Reseed(77);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.Next(), plain[i]);
}

// ---------------------------------------------------------------------------
// DeriveSeed statistical independence (satellite smoke test).
//
// Adjacent scenario indices must yield xoshiro streams with no detectable
// pairwise linear correlation. 256 adjacent indices, 4096 uniforms each,
// all 32640 pairs. For i.i.d. streams the sample correlation r has stddev
// 1/sqrt(4096) ~= 0.0156; the max over 32640 pairs concentrates near 4.3
// sigma ~= 0.067, so 0.09 (> 5.7 sigma) fails only on a real defect.
// ---------------------------------------------------------------------------

TEST(DeriveSeedTest, AdjacentStreamsAreUncorrelated) {
  constexpr int kStreams = 256;
  constexpr int kDraws = 4096;
  static std::vector<std::vector<double>> streams(kStreams,
                                                  std::vector<double>(kDraws));
  std::vector<double> mean(kStreams, 0.0);
  std::vector<double> inv_norm(kStreams, 0.0);
  for (int s = 0; s < kStreams; ++s) {
    Rng rng(DeriveSeed(0x5eedULL, static_cast<uint64_t>(s)));
    double sum = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      streams[s][i] = rng.NextDouble();
      sum += streams[s][i];
    }
    mean[s] = sum / kDraws;
    double ss = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      streams[s][i] -= mean[s];
      ss += streams[s][i] * streams[s][i];
    }
    ASSERT_GT(ss, 0.0);
    inv_norm[s] = 1.0 / std::sqrt(ss);
  }
  double max_abs_r = 0.0;
  for (int a = 0; a < kStreams; ++a) {
    for (int b = a + 1; b < kStreams; ++b) {
      double dot = 0.0;
      for (int i = 0; i < kDraws; ++i) {
        dot += streams[a][i] * streams[b][i];
      }
      max_abs_r = std::max(max_abs_r, std::abs(dot * inv_norm[a] * inv_norm[b]));
    }
  }
  EXPECT_LT(max_abs_r, 0.09);
}

}  // namespace
}  // namespace longstore
