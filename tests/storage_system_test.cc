#include "src/storage/replicated_system.h"

#include <gtest/gtest.h>

#include "src/util/stats.h"

namespace longstore {
namespace {

// Fast-failing replicas so deterministic behaviours show up in short runs;
// no detection process unless a test adds one.
ReplicaSpec Aggressive() {
  return ReplicaSpec()
      .FaultTimes(Duration::Hours(1000.0), Duration::Hours(500.0))
      .RepairTimes(Duration::Hours(20.0), Duration::Hours(20.0));
}

Scenario Fleet(int replicas, ReplicaSpec spec) {
  return ScenarioBuilder().Replicas(replicas, std::move(spec)).Build();
}

TEST(StorageSystemTest, SurvivesWhenFaultsAreImpossiblyRare) {
  const Scenario scenario =
      Fleet(2, Aggressive().FaultTimes(Duration::Hours(1e15), Duration::Hours(1e15)));
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 1, Duration::Years(100.0));
  EXPECT_FALSE(outcome.loss_time.has_value());
  EXPECT_EQ(outcome.metrics.visible_faults + outcome.metrics.latent_faults, 0);
}

TEST(StorageSystemTest, UnscrubbedMirrorEventuallyLosesData) {
  const RunOutcome outcome =
      RunToLossOrHorizon(Fleet(2, Aggressive()), 7, Duration::Years(1000.0));
  ASSERT_TRUE(outcome.loss_time.has_value());
  EXPECT_GT(outcome.loss_time->hours(), 0.0);
}

TEST(StorageSystemTest, LossStopsTheSimulation) {
  Simulator sim;
  Rng rng(3);
  ReplicatedStorageSystem system(&sim, &rng, Fleet(2, Aggressive()));
  system.Start();
  sim.RunUntil(Duration::Years(1000.0));
  ASSERT_TRUE(system.lost());
  // The clock stopped at the loss instant rather than running to the horizon.
  EXPECT_DOUBLE_EQ(sim.now().hours(), system.loss_time().hours());
  EXPECT_EQ(system.intact_count(), 0);
}

TEST(StorageSystemTest, ConstructorThrowsOnInvalidScenario) {
  Scenario scenario = Fleet(2, Aggressive());
  scenario.replicas.clear();
  Simulator sim;
  Rng rng(1);
  EXPECT_THROW(ReplicatedStorageSystem(&sim, &rng, scenario), std::invalid_argument);
}

TEST(StorageSystemTest, StartTwiceThrows) {
  Simulator sim;
  Rng rng(3);
  ReplicatedStorageSystem system(&sim, &rng, Fleet(2, Aggressive()));
  system.Start();
  EXPECT_THROW(system.Start(), std::logic_error);
}

TEST(StorageSystemTest, WindowBookkeepingReconciles) {
  const Scenario scenario = Fleet(2, Aggressive().ScrubEvery(Duration::Hours(100.0)));
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 11, Duration::Years(2000.0));
  const SimMetrics& m = outcome.metrics;
  const int64_t opened = m.windows_opened[0] + m.windows_opened[1];
  const int64_t survived = m.windows_survived[0] + m.windows_survived[1];
  const int64_t second = m.second_faults[0][0] + m.second_faults[0][1] +
                         m.second_faults[1][0] + m.second_faults[1][1];
  EXPECT_GT(opened, 0);
  // Every opened window either survived or saw a second fault; at most one
  // window can still be open when the run ends.
  EXPECT_GE(opened, survived + second);
  EXPECT_LE(opened - (survived + second), 1);
}

TEST(StorageSystemTest, PeriodicScrubDetectionLatencyIsHalfPeriod) {
  const Duration period = Duration::Hours(80.0);
  // Eight replicas are loss-proof, so the run spans the full horizon; the
  // visible-fault clock is switched off to isolate latent behaviour.
  const Scenario scenario =
      Fleet(8, Aggressive()
                   .FaultTimes(Duration::Hours(1e12), Duration::Hours(200.0))
                   .RepairTimes(Duration::Hours(20.0), Duration::Hours(0.001))
                   .ScrubEvery(period));
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 13, Duration::Years(200.0));
  const RunningStats& latency = outcome.metrics.detection_latency_hours;
  ASSERT_GT(latency.count(), 1000);
  EXPECT_NEAR(latency.mean(), period.hours() / 2.0, period.hours() * 0.05);
  // No detection can take longer than a full period.
  EXPECT_LE(latency.max(), period.hours() * (1.0 + 1e-9));
}

TEST(StorageSystemTest, ExponentialAuditLatencyMatchesMean) {
  const Scenario scenario =
      Fleet(8, Aggressive()
                   .FaultTimes(Duration::Hours(1e12), Duration::Hours(200.0))
                   .RepairTimes(Duration::Hours(20.0), Duration::Hours(0.001))
                   .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(60.0))));
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 17, Duration::Years(200.0));
  const RunningStats& latency = outcome.metrics.detection_latency_hours;
  ASSERT_GT(latency.count(), 1000);
  EXPECT_NEAR(latency.mean(), 60.0, 4.0);
}

TEST(StorageSystemTest, NoDetectionMeansLatentFaultsNeverClear) {
  // Three replicas survive long enough to accumulate faults.
  const Scenario scenario =
      Fleet(3, Aggressive().FaultTimes(Duration::Hours(1e12), Duration::Hours(500.0)));
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 19, Duration::Years(50.0));
  EXPECT_EQ(outcome.metrics.latent_detections, 0);
  EXPECT_EQ(outcome.metrics.repairs_completed, 0);
}

TEST(StorageSystemTest, DeterministicRepairHasFixedDuration) {
  const Scenario scenario =
      Fleet(4, Aggressive()
                   .FaultTimes(Duration::Hours(300.0), Duration::Hours(1e12))
                   .RepairTimes(Duration::Hours(7.0), Duration::Hours(20.0))
                   .DeterministicRepair());
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 29, Duration::Years(100.0));
  const RunningStats& repair = outcome.metrics.repair_duration_hours;
  ASSERT_GT(repair.count(), 100);
  EXPECT_NEAR(repair.mean(), 7.0, 1e-9);
  EXPECT_NEAR(repair.min(), 7.0, 1e-9);
  EXPECT_NEAR(repair.max(), 7.0, 1e-9);
}

TEST(StorageSystemTest, CommonModeEventCanDestroyAllReplicasAtOnce) {
  // Only the common mode acts.
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(4,
                    Aggressive().FaultTimes(Duration::Hours(1e12), Duration::Hours(1e12)))
          .CommonMode(CommonModeSource{"site disaster", Rate::PerYear(0.5), {0, 1, 2, 3},
                                       1.0, 1.0})
          .Build();
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 31, Duration::Years(100.0));
  ASSERT_TRUE(outcome.loss_time.has_value());
  EXPECT_GE(outcome.metrics.common_mode_events, 1);
  EXPECT_GE(outcome.metrics.common_mode_faults, 4);
}

TEST(StorageSystemTest, CommonModeHitProbabilityScalesImpact) {
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(20, Aggressive()
                            .FaultTimes(Duration::Hours(1e12), Duration::Hours(1e12))
                            .RepairTimes(Duration::Hours(1.0), Duration::Hours(20.0)))
          .CommonModeAll("power", Rate::PerYear(10.0), 0.3, 1.0)
          .Build();
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 37, Duration::Years(50.0));
  ASSERT_GT(outcome.metrics.common_mode_events, 100);
  const double hits_per_event =
      static_cast<double>(outcome.metrics.common_mode_faults) /
      static_cast<double>(outcome.metrics.common_mode_events);
  // 20 members x 0.3 hit probability = 6 expected faults per event (slightly
  // fewer since already-faulty members are skipped).
  EXPECT_NEAR(hits_per_event, 6.0, 0.6);
}

TEST(StorageSystemTest, ReproducibleAcrossIdenticalSeeds) {
  const Scenario scenario = Fleet(2, Aggressive().ScrubEvery(Duration::Hours(120.0)));
  const RunOutcome a = RunToLossOrHorizon(scenario, 99, Duration::Years(300.0));
  const RunOutcome b = RunToLossOrHorizon(scenario, 99, Duration::Years(300.0));
  ASSERT_EQ(a.loss_time.has_value(), b.loss_time.has_value());
  if (a.loss_time) {
    EXPECT_DOUBLE_EQ(a.loss_time->hours(), b.loss_time->hours());
  }
  EXPECT_EQ(a.metrics.visible_faults, b.metrics.visible_faults);
  EXPECT_EQ(a.metrics.latent_faults, b.metrics.latent_faults);
}

TEST(StorageSystemTest, DifferentSeedsDiverge) {
  const Scenario scenario = Fleet(2, Aggressive());
  const RunOutcome a = RunToLossOrHorizon(scenario, 1, Duration::Years(300.0));
  const RunOutcome b = RunToLossOrHorizon(scenario, 2, Duration::Years(300.0));
  const bool same_loss =
      a.loss_time.has_value() == b.loss_time.has_value() &&
      (!a.loss_time || a.loss_time->hours() == b.loss_time->hours());
  EXPECT_FALSE(same_loss && a.metrics.visible_faults == b.metrics.visible_faults &&
               a.metrics.latent_faults == b.metrics.latent_faults);
}

TEST(StorageSystemTest, TraceRecordsFaultLifecycle) {
  Simulator sim;
  Rng rng(5);
  TraceRecorder trace;
  ReplicatedStorageSystem system(
      &sim, &rng, Fleet(2, Aggressive().ScrubEvery(Duration::Hours(100.0))), &trace);
  system.Start();
  sim.RunUntil(Duration::Years(50.0));
  EXPECT_GT(trace.CountKind(TraceEventKind::kVisibleFault) +
                trace.CountKind(TraceEventKind::kLatentFault),
            0u);
  if (system.lost()) {
    EXPECT_EQ(trace.CountKind(TraceEventKind::kDataLoss), 1u);
  }
  // Repairs traced in start/complete pairs (an in-flight repair at the end of
  // the run may leave one unmatched start).
  const size_t starts = trace.CountKind(TraceEventKind::kRepairStarted);
  const size_t completes = trace.CountKind(TraceEventKind::kRepairCompleted);
  EXPECT_GE(starts, completes);
  EXPECT_LE(starts - completes, 2u);
}

TEST(StorageSystemTest, WeibullWearOutAcceleratesOverLife) {
  // Shape 4 wear-out: almost no faults in the first tenth of life.
  const Scenario scenario =
      Fleet(2, Aggressive()
                   .FaultTimes(Duration::Hours(10000.0), Duration::Hours(1e12))
                   .Weibull(4.0));
  int early_faults = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const RunOutcome outcome =
        RunToLossOrHorizon(scenario, 1000 + seed, Duration::Hours(1000.0));
    early_faults += static_cast<int>(outcome.metrics.visible_faults);
  }
  // Exponential would give ~200 * 2 * 0.1 = 40 faults in this window; the
  // Weibull hazard at a tenth of scale is ~(0.1)^3 of that.
  EXPECT_LT(early_faults, 5);
}

}  // namespace
}  // namespace longstore
