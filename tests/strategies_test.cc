#include "src/model/strategies.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace longstore {
namespace {

TEST(ScrubPolicyTest, PeriodicLatencyIsHalfInterval) {
  const ScrubPolicy policy = ScrubPolicy::Periodic(Duration::Hours(2920.0));
  EXPECT_NEAR(policy.MeanDetectionLatency().hours(), 1460.0, 1e-9);
}

TEST(ScrubPolicyTest, PerYearFactoryMatchesPaper) {
  // Three audits per year -> MDL = 1460 h (§5.4).
  const ScrubPolicy policy = ScrubPolicy::PeriodicPerYear(3.0);
  EXPECT_NEAR(policy.MeanDetectionLatency().hours(), 1460.0, 0.5);
}

TEST(ScrubPolicyTest, MemorylessKindsHaveFullIntervalLatency) {
  EXPECT_NEAR(ScrubPolicy::Exponential(Duration::Hours(100.0))
                  .MeanDetectionLatency()
                  .hours(),
              100.0, 1e-12);
  EXPECT_NEAR(
      ScrubPolicy::OnAccess(Duration::Years(5.0)).MeanDetectionLatency().years(), 5.0,
      1e-12);
}

TEST(ScrubPolicyTest, NoneNeverDetects) {
  EXPECT_TRUE(ScrubPolicy::None().MeanDetectionLatency().is_infinite());
}

TEST(ScrubPolicyTest, ToStringDescribesKind) {
  EXPECT_EQ(ScrubPolicy::None().ToString(), "no audit");
  EXPECT_NE(ScrubPolicy::Periodic(Duration::Days(30.0)).ToString().find("periodic"),
            std::string::npos);
  EXPECT_NE(ScrubPolicy::OnAccess(Duration::Years(1.0)).ToString().find("on-access"),
            std::string::npos);
}

TEST(ApplyScrubPolicyTest, SetsOnlyMdl) {
  const FaultParams base = FaultParams::PaperCheetahExample();
  const FaultParams scrubbed =
      ApplyScrubPolicy(base, ScrubPolicy::PeriodicPerYear(3.0));
  EXPECT_NEAR(scrubbed.mdl.hours(), 1460.0, 0.5);
  EXPECT_EQ(scrubbed.mv, base.mv);
  EXPECT_EQ(scrubbed.ml, base.ml);
  EXPECT_EQ(scrubbed.mrv, base.mrv);
  EXPECT_EQ(scrubbed.alpha, base.alpha);
}

TEST(ScaleFaultTimesTest, ScalesBothAxes) {
  const FaultParams base = FaultParams::PaperCheetahExample();
  const FaultParams better = ScaleFaultTimes(base, 2.0, 0.5);
  EXPECT_NEAR(better.mv.hours(), 2.8e6, 1.0);
  EXPECT_NEAR(better.ml.hours(), 1.4e5, 1.0);
  EXPECT_THROW(ScaleFaultTimes(base, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ScaleFaultTimes(base, 1.0, -2.0), std::invalid_argument);
}

TEST(WithCorrelationTest, ReplacesAlpha) {
  const FaultParams p = WithCorrelation(FaultParams::PaperCheetahExample(), 0.25);
  EXPECT_DOUBLE_EQ(p.alpha, 0.25);
}

TEST(RebuildTimeTest, PaperCheetahFigure) {
  // 146 GB at ~122 MB/s is the paper's quoted 20 minutes.
  EXPECT_NEAR(RebuildTime(146.0, 121.7).minutes(), 20.0, 0.1);
  // At the quoted 300 MB/s interface rate it would be ~8 minutes.
  EXPECT_NEAR(RebuildTime(146.0, 300.0).minutes(), 8.1, 0.05);
  EXPECT_THROW(RebuildTime(0.0, 100.0), std::invalid_argument);
  EXPECT_THROW(RebuildTime(100.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace longstore
