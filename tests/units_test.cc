#include "src/util/units.h"

#include <cmath>

#include <gtest/gtest.h>

namespace longstore {
namespace {

TEST(DurationTest, ConversionsRoundTrip) {
  const Duration d = Duration::Hours(8760.0);
  EXPECT_DOUBLE_EQ(d.years(), 1.0);
  EXPECT_DOUBLE_EQ(d.days(), 365.0);
  EXPECT_DOUBLE_EQ(Duration::Years(1.0).hours(), 8760.0);
  EXPECT_DOUBLE_EQ(Duration::Minutes(20.0).hours(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Duration::Seconds(3600.0).hours(), 1.0);
  EXPECT_DOUBLE_EQ(Duration::Days(2.0).hours(), 48.0);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::Hours(10.0);
  const Duration b = Duration::Hours(4.0);
  EXPECT_DOUBLE_EQ((a + b).hours(), 14.0);
  EXPECT_DOUBLE_EQ((a - b).hours(), 6.0);
  EXPECT_DOUBLE_EQ((a * 2.5).hours(), 25.0);
  EXPECT_DOUBLE_EQ((2.5 * a).hours(), 25.0);
  EXPECT_DOUBLE_EQ((a / 4.0).hours(), 2.5);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  Duration c = a;
  c += b;
  EXPECT_DOUBLE_EQ(c.hours(), 14.0);
  c -= a;
  EXPECT_DOUBLE_EQ(c.hours(), 4.0);
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(Duration::Hours(1.0), Duration::Hours(2.0));
  EXPECT_LE(Duration::Hours(2.0), Duration::Hours(2.0));
  EXPECT_GT(Duration::Infinite(), Duration::Years(1e9));
  EXPECT_EQ(Duration::Zero(), Duration::Hours(0.0));
}

TEST(DurationTest, InfinityAndFlags) {
  EXPECT_TRUE(Duration::Infinite().is_infinite());
  EXPECT_FALSE(Duration::Hours(5.0).is_infinite());
  EXPECT_TRUE(Duration::Zero().is_zero());
  EXPECT_TRUE((Duration::Hours(1.0) - Duration::Hours(2.0)).is_negative());
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Years(32.0).ToString(), "32 y");
  EXPECT_EQ(Duration::Minutes(20.0).ToString(), "20 min");
  EXPECT_EQ(Duration::Hours(5.0).ToString(), "5 h");
  EXPECT_EQ(Duration::Infinite().ToString(), "inf");
  EXPECT_EQ(Duration::Seconds(30.0).ToString(), "30 s");
  EXPECT_EQ(Duration::Days(3.0).ToString(), "3 d");
}

TEST(RateTest, InverseRelationship) {
  const Rate r = Rate::InverseOf(Duration::Hours(200.0));
  EXPECT_DOUBLE_EQ(r.per_hour(), 0.005);
  EXPECT_DOUBLE_EQ(r.MeanInterval().hours(), 200.0);
  EXPECT_TRUE(Rate::InverseOf(Duration::Infinite()).is_zero());
  EXPECT_TRUE(Rate::Zero().MeanInterval().is_infinite());
}

TEST(RateTest, PerYearConversion) {
  const Rate r = Rate::PerYear(8760.0);
  EXPECT_DOUBLE_EQ(r.per_hour(), 1.0);
  EXPECT_DOUBLE_EQ(Rate::PerHour(2.0).per_year(), 2.0 * 8760.0);
}

TEST(RateTest, Arithmetic) {
  const Rate a = Rate::PerHour(0.3);
  const Rate b = Rate::PerHour(0.2);
  EXPECT_DOUBLE_EQ((a + b).per_hour(), 0.5);
  EXPECT_DOUBLE_EQ((a * 2.0).per_hour(), 0.6);
  EXPECT_DOUBLE_EQ((3.0 * b).per_hour(), 0.6);
  EXPECT_DOUBLE_EQ((a / 3.0).per_hour(), 0.1);
}

TEST(MissionLossProbabilityTest, MatchesExponentialLaw) {
  // Paper §5.4: MTTDL = 32.0 years gives 79.0% loss probability in 50 years.
  const double p = MissionLossProbability(Duration::Years(31.96), Duration::Years(50.0));
  EXPECT_NEAR(p, 0.79, 0.005);
  // MTTDL = 6128.7 years gives 0.8%.
  const double q =
      MissionLossProbability(Duration::Years(6128.7), Duration::Years(50.0));
  EXPECT_NEAR(q, 0.008, 5e-4);
}

TEST(MissionLossProbabilityTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(MissionLossProbability(Duration::Infinite(), Duration::Years(50)), 0.0);
  EXPECT_DOUBLE_EQ(MissionLossProbability(Duration::Zero(), Duration::Years(50)), 1.0);
  EXPECT_DOUBLE_EQ(MissionLossProbability(Duration::Years(10), Duration::Zero()), 0.0);
}

TEST(ClampProbabilityTest, Clamps) {
  EXPECT_DOUBLE_EQ(ClampProbability(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(ClampProbability(0.25), 0.25);
  EXPECT_DOUBLE_EQ(ClampProbability(1.5), 1.0);
}

}  // namespace
}  // namespace longstore
