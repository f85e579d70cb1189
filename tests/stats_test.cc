#include "src/util/stats.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace longstore {
namespace {

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance of this classic set is 4; sample variance 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.std_error(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = std::sin(i) * 10.0 + i * 0.01;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(2.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  RunningStats target;
  target.Merge(a);
  EXPECT_EQ(target.count(), 2);
  EXPECT_DOUBLE_EQ(target.mean(), 1.5);
}

TEST(NormalQuantileTest, StandardValues) {
  EXPECT_NEAR(NormalQuantileTwoSided(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantileTwoSided(0.99), 2.575829, 1e-5);
  EXPECT_NEAR(NormalQuantileTwoSided(0.6827), 1.0, 1e-3);
  EXPECT_THROW(NormalQuantileTwoSided(0.0), std::invalid_argument);
  EXPECT_THROW(NormalQuantileTwoSided(1.0), std::invalid_argument);
}

TEST(InverseNormalCdfTest, RoundTripsWithErfc) {
  for (double p : {1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6}) {
    const double x = InverseNormalCdf(p);
    const double cdf = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(cdf, p, 1e-9) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(InverseNormalCdf(0.5), InverseNormalCdf(0.5));
  EXPECT_LT(InverseNormalCdf(0.25), 0.0);
  EXPECT_GT(InverseNormalCdf(0.75), 0.0);
}

TEST(MeanConfidenceIntervalTest, CoversTrueMeanAtNominalRate) {
  // 95% CI should contain the true mean ~95% of the time; with 400
  // repetitions the count is ~380 +/- 22 (5 sigma).
  uint64_t state = 12345;
  int covered = 0;
  constexpr int kReps = 400;
  constexpr int kSamplesPerRep = 200;
  for (int rep = 0; rep < kReps; ++rep) {
    RunningStats s;
    for (int i = 0; i < kSamplesPerRep; ++i) {
      // Uniform(0,1) via SplitMix64; true mean 0.5.
      const double u =
          static_cast<double>(SplitMix64Next(state) >> 11) * 0x1.0p-53;
      s.Add(u);
    }
    if (MeanConfidenceInterval(s, 0.95).Contains(0.5)) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 358);
  EXPECT_LE(covered, 398);
}

TEST(WilsonIntervalTest, KnownValues) {
  // 8 successes of 10 at 95%: Wilson gives approximately [0.49, 0.94].
  const Interval i = WilsonInterval(8, 10, 0.95);
  EXPECT_NEAR(i.lo, 0.49, 0.02);
  EXPECT_NEAR(i.hi, 0.94, 0.02);
}

TEST(WilsonIntervalTest, ZeroAndAllSuccesses) {
  const Interval none = WilsonInterval(0, 100, 0.95);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_GT(none.hi, 0.0);
  EXPECT_LT(none.hi, 0.05);
  const Interval all = WilsonInterval(100, 100, 0.95);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  EXPECT_GT(all.lo, 0.95);
}

TEST(WilsonIntervalTest, DegenerateTrials) {
  const Interval i = WilsonInterval(0, 0, 0.95);
  EXPECT_DOUBLE_EQ(i.lo, 0.0);
  EXPECT_DOUBLE_EQ(i.hi, 1.0);
}

}  // namespace
}  // namespace longstore
