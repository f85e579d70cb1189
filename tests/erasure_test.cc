// Tests for the (n, m) erasure-coding generalization (§7's OceanStore-style
// m-of-n sharing) across the CTMC, the dominant-path closed form, and the
// simulator.

#include <limits>

#include <gtest/gtest.h>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

FaultParams VisibleOnly() {
  FaultParams p;
  p.mv = Duration::Hours(1.4e6);
  p.ml = Duration::Hours(1e30);
  p.mrv = Duration::Minutes(20.0);
  p.mrl = Duration::Zero();
  p.mdl = Duration::Zero();
  return p;
}

FaultParams WithLatent() {
  return ApplyScrubPolicy(FaultParams::PaperCheetahExample(),
                          ScrubPolicy::PeriodicPerYear(3.0));
}

// Closed-form oracle: the exact birth-death MTTDL of an (n, m) erasure-coded
// system under visible faults only, the analogue of equation 12 for m-of-n.
// Loss takes K = n - m + 1 concurrent failures; with birth rates b_k
// (k -> k+1 failures) and repair rates d_k, the expected passage times obey
// the subtraction-free recursion
//   u_0 = 1/b_0,   u_k = (1 + d_k · u_{k-1}) / b_k,   MTTDL = Σ u_k,
// which is exact because the visible-only chain is a birth-death chain.
// Under kPhysical, b_k = (n-k)·λ/α (α only once faulty) and d_k = k·μ; under
// kPaper, b_0 = λ, b_k = λ/α, d_k = μ (serial repair). Instant repair
// (MRV = 0) gives an infinite MTTDL whenever any redundancy exists.
Duration ErasureBirthDeathMttdl(const FaultParams& p, int fragments,
                                int required_intact, RateConvention convention) {
  const double lambda = 1.0 / p.mv.hours();
  const int absorbing_count = fragments - required_intact + 1;
  const bool physical = convention == RateConvention::kPhysical;
  const bool instant_repair = !(p.mrv.hours() > 0.0);
  if (instant_repair && absorbing_count >= 2) {
    return Duration::Infinite();  // failed fragments never accumulate
  }
  const double mu = instant_repair ? 0.0 : 1.0 / p.mrv.hours();
  double mttdl_hours = 0.0;
  double u_prev = 0.0;  // expected time to advance from k-1 to k failures
  for (int k = 0; k < absorbing_count; ++k) {
    const double birth = (physical ? (fragments - k) * lambda : lambda) /
                         (k > 0 ? p.alpha : 1.0);
    const double death = k > 0 ? (physical ? k * mu : mu) : 0.0;
    const double u_k = (1.0 + death * u_prev) / birth;
    mttdl_hours += u_k;
    u_prev = u_k;
  }
  return Duration::Hours(mttdl_hours);
}

TEST(ErasureCtmcTest, MEqualsOneMatchesReplication) {
  const FaultParams p = WithLatent();
  for (int r : {2, 3, 4}) {
    const ReplicatedChainBuilder replication(p, r, RateConvention::kPhysical);
    const ReplicatedChainBuilder erasure(p, r, RateConvention::kPhysical,
                                         /*required_intact=*/1);
    EXPECT_NEAR(erasure.Mttdl()->hours() / replication.Mttdl()->hours(), 1.0, 1e-12);
  }
}

TEST(ErasureCtmcTest, NOfNHasNoRedundancy) {
  // required_intact == fragments: any single fault is fatal, so MTTDL is the
  // first-fault time (divided by n under the physical convention).
  const FaultParams p = WithLatent();
  const int n = 4;
  const ReplicatedChainBuilder chain(p, n, RateConvention::kPhysical, n);
  const double rate = n * (1.0 / p.mv.hours() + 1.0 / p.ml.hours());
  EXPECT_NEAR(chain.Mttdl()->hours(), 1.0 / rate, 1e-3 / rate);
}

TEST(ErasureCtmcTest, MoreFragmentsAtFixedRequirementHelp) {
  const FaultParams p = WithLatent();
  double previous = 0.0;
  for (int n = 3; n <= 6; ++n) {
    const ReplicatedChainBuilder chain(p, n, RateConvention::kPhysical, 3);
    const double mttdl = chain.Mttdl()->hours();
    EXPECT_GT(mttdl, previous) << "n=" << n;
    previous = mttdl;
  }
}

TEST(ErasureCtmcTest, HigherRequirementAtFixedFragmentsHurts) {
  const FaultParams p = WithLatent();
  double previous = std::numeric_limits<double>::infinity();
  for (int m = 1; m <= 6; ++m) {
    const ReplicatedChainBuilder chain(p, 6, RateConvention::kPhysical, m);
    const double mttdl = chain.Mttdl()->hours();
    EXPECT_LT(mttdl, previous) << "m=" << m;
    previous = mttdl;
  }
}

TEST(ErasureCtmcTest, EqualOverheadErasureBeatsReplication) {
  // Weatherspoon & Kubiatowicz: at the same storage overhead, m-of-n coding
  // tolerates more concurrent failures than whole-data replication.
  // Overhead 4x: replication r=4 (tolerates 3) vs (n=8, m=2) (tolerates 6).
  const FaultParams p = WithLatent();
  const ReplicatedChainBuilder replication(p, 4, RateConvention::kPhysical, 1);
  const ReplicatedChainBuilder erasure(p, 8, RateConvention::kPhysical, 2);
  EXPECT_GT(erasure.Mttdl()->hours(), replication.Mttdl()->hours() * 10.0);
}

TEST(ErasureBirthDeathTest, ReducesToEquation12ForReplication) {
  // eq 12 is the fast-repair limit of the exact recursion; at MRV/MV ~ 2e-7
  // they agree to ~1e-6 relative.
  const FaultParams p = VisibleOnly();
  for (int r : {2, 3, 5}) {
    for (double alpha : {1.0, 0.1}) {
      FaultParams q = WithCorrelation(p, alpha);
      const Duration exact =
          ErasureBirthDeathMttdl(q, r, 1, RateConvention::kPaper);
      const Duration eq12 = MttdlReplicated(q, r);
      EXPECT_NEAR(exact.hours() / eq12.hours(), 1.0, 1e-5)
          << "r=" << r << " alpha=" << alpha;
    }
  }
}

TEST(ErasureBirthDeathTest, MatchesCtmcExactly) {
  // The visible-only chain IS a birth-death chain, so the recursion and the
  // generic CTMC solver must agree to solver precision.
  const FaultParams p = VisibleOnly();
  struct Case {
    int n;
    int m;
  };
  for (const Case& c : {Case{4, 2}, Case{6, 3}, Case{8, 2}}) {
    const ReplicatedChainBuilder chain(p, c.n, RateConvention::kPhysical, c.m);
    const Duration recursion =
        ErasureBirthDeathMttdl(p, c.n, c.m, RateConvention::kPhysical);
    EXPECT_NEAR(recursion.hours() / chain.Mttdl()->hours(), 1.0, 1e-9)
        << "n=" << c.n << " m=" << c.m;
  }
}

TEST(ErasureBirthDeathTest, NoRedundancyIsFirstFaultTime) {
  // m == n: loss at the first fault; repair speed is irrelevant.
  const FaultParams p = VisibleOnly();
  const double lambda = 1.0 / p.mv.hours();
  const Duration t = ErasureBirthDeathMttdl(p, 3, 3, RateConvention::kPhysical);
  EXPECT_NEAR(t.hours(), 1.0 / (3.0 * lambda), 1e-3);
}

TEST(ErasureBirthDeathTest, InstantRepairGivesInfiniteMttdl) {
  FaultParams p = VisibleOnly();
  p.mrv = Duration::Zero();
  EXPECT_TRUE(
      ErasureBirthDeathMttdl(p, 3, 2, RateConvention::kPhysical).is_infinite());
}

TEST(ErasureSimTest, SimulatorMatchesCtmcForMOfN) {
  FaultParams p;
  p.mv = Duration::Hours(600.0);
  p.ml = Duration::Hours(300.0);
  p.mrv = Duration::Hours(10.0);
  p.mrl = Duration::Hours(10.0);
  p.mdl = Duration::Hours(50.0);

  const Scenario scenario =
      ScenarioBuilder().Replicas(5, SpecFromParams(p)).RequiredIntact(3).Build();

  McConfig mc;
  mc.trials = 4000;
  mc.seed = 4242;
  const MttdlEstimate estimate = EstimateMttdl(scenario, mc);

  const ReplicatedChainBuilder chain(p, 5, RateConvention::kPhysical, 3);
  const double exact = chain.Mttdl()->hours();
  const double mc_hours = estimate.mean_years() * kHoursPerYear;
  EXPECT_NEAR(mc_hours / exact, 1.0, 0.08);
}

TEST(ErasureSimTest, LossDeclaredAtExactThreshold) {
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(4, ReplicaSpec()
                           .FaultTimes(Duration::Hours(100.0), Duration::Hours(1e12))
                           .RepairTimes(Duration::Hours(1e9),  // effectively no repair
                                        Duration::Zero()))
          .RequiredIntact(3)
          .Build();
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 9, Duration::Years(100.0));
  ASSERT_TRUE(outcome.loss_time.has_value());
  // Loss required exactly 2 faults (4 fragments, 3 required).
  EXPECT_EQ(outcome.metrics.visible_faults, 2);
}

TEST(ErasureSimTest, ConfigValidatesRequirement) {
  Scenario scenario =
      ScenarioBuilder().Replicas(3, SpecFromParams(WithLatent())).Build();
  scenario.required_intact = 0;
  EXPECT_TRUE(scenario.Validate().has_value());
  scenario.required_intact = 4;
  EXPECT_TRUE(scenario.Validate().has_value());
  scenario.required_intact = 3;
  EXPECT_FALSE(scenario.Validate().has_value());
}

}  // namespace
}  // namespace longstore
