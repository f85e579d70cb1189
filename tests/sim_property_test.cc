// Parameterized simulator-vs-CTMC sweep: for every corner of a parameter
// grid, the Monte Carlo estimate of MTTDL must agree with the exact chain
// within sampling error. This is the strongest end-to-end invariant the
// library has — it pins the event-driven implementation (scheduling,
// cancellation, correlation rescheduling, detection, repair) to the closed
// mathematical object it claims to sample.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "src/model/replica_ctmc.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

// Axes: replica count, ml/mv ratio, alpha. The simulator runs the physical
// convention, so the chain it must match is the physical one.
using SimSweepParam = std::tuple<int, double, double>;

class SimSweepTest : public ::testing::TestWithParam<SimSweepParam> {
 protected:
  FaultParams Params() const {
    FaultParams p;
    p.mv = Duration::Hours(1500.0);
    p.ml = Duration::Hours(1500.0 * std::get<1>(GetParam()));
    p.mrv = Duration::Hours(3.0);
    p.mrl = Duration::Hours(3.0);
    p.mdl = Duration::Hours(50.0);
    p.alpha = std::get<2>(GetParam());
    return p;
  }
  int Replicas() const { return std::get<0>(GetParam()); }
  // The simulated fleet; exponential audits with mean MDL match the chain.
  Scenario SimScenario() const {
    const FaultParams p = Params();
    return ScenarioBuilder()
        .Replicas(Replicas(), SpecFromParams(p))
        .Correlation(p.alpha)
        .Build();
  }
};

TEST_P(SimSweepTest, McMttdlMatchesExactChain) {
  const FaultParams p = Params();
  const ReplicatedChainBuilder chain(p, Replicas(), RateConvention::kPhysical);
  const auto exact = chain.Mttdl();
  ASSERT_TRUE(exact.has_value());
  ASSERT_FALSE(exact->is_infinite());

  McConfig mc;
  mc.trials = 2500;
  mc.seed = 0xabcdef;
  const MttdlEstimate estimate = EstimateMttdl(SimScenario(), mc);
  ASSERT_EQ(estimate.censored_trials, 0);
  const double mc_hours = estimate.mean_years() * kHoursPerYear;
  // 2500 ~exponential samples: SE ~2%; allow 5 sigma.
  EXPECT_NEAR(mc_hours / exact->hours(), 1.0, 0.10)
      << "r=" << Replicas() << " mlr=" << std::get<1>(GetParam())
      << " alpha=" << p.alpha;
}

TEST_P(SimSweepTest, MeasuredDetectionLatencyMatchesPolicy) {
  const FaultParams p = Params();
  if (p.alpha < 1.0) {
    // Correlated corners censor the measurement: latent faults that cascade
    // into data loss are never detected, and the long-waiting ones die
    // preferentially, biasing the observed latency low. Only the
    // independent corners measure the policy cleanly.
    GTEST_SKIP() << "detection latency is loss-censored under correlation";
  }
  McConfig mc;
  mc.trials = 1500;
  mc.seed = 0xfeef;
  const MttdlEstimate estimate = EstimateMttdl(SimScenario(), mc);
  const RunningStats& latency = estimate.aggregate_metrics.detection_latency_hours;
  if (latency.count() < 500) {
    GTEST_SKIP() << "too few detections at this corner for a tight check";
  }
  EXPECT_NEAR(latency.mean(), p.mdl.hours(), p.mdl.hours() * 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimSweepTest,
    ::testing::Combine(
        /*replicas=*/::testing::Values(2, 3),
        /*ml ratio=*/::testing::Values(0.25, 2.0),
        /*alpha=*/::testing::Values(1.0, 0.3)),
    [](const ::testing::TestParamInfo<SimSweepParam>& param_info) {
      char name[96];
      std::snprintf(name, sizeof(name), "r%d_mlr%03.0f_a%03.0f_phys",
                    std::get<0>(param_info.param), std::get<1>(param_info.param) * 100.0,
                    std::get<2>(param_info.param) * 100.0);
      return std::string(name);
    });

}  // namespace
}  // namespace longstore
