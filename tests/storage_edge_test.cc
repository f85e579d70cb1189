// Edge-path tests for the storage simulator: periodic-scrub phase
// alignment and horizon semantics.

#include <gtest/gtest.h>

#include "src/storage/replicated_system.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

ReplicaSpec LatentHeavy() {
  return ReplicaSpec()
      .FaultTimes(Duration::Hours(1e12), Duration::Hours(400.0))
      .RepairTimes(Duration::Hours(1.0), Duration::Hours(1.0));
}

TEST(ScrubPhaseTest, StaggeredAndAlignedBothDetectWithinOnePeriod) {
  for (bool staggered : {true, false}) {
    Scenario scenario = ScenarioBuilder()
                            .Replicas(4, LatentHeavy().ScrubEvery(Duration::Hours(120.0)))
                            .Build();
    scenario.scrub_staggered = staggered;
    const RunOutcome outcome = RunToLossOrHorizon(scenario, 11, Duration::Years(20.0));
    ASSERT_GT(outcome.metrics.latent_detections, 100) << "staggered=" << staggered;
    EXPECT_LE(outcome.metrics.detection_latency_hours.max(), 120.0 * (1 + 1e-9));
    EXPECT_NEAR(outcome.metrics.detection_latency_hours.mean(), 60.0, 8.0);
  }
}

TEST(ScrubPhaseTest, StaggeredPhasesDifferAcrossReplicas) {
  // With staggered phases, replicas are audited at different instants; the
  // deterministic detection times of simultaneous faults must differ.
  // Three replicas so a simultaneous double-latent hit on {0, 1} degrades
  // but does not destroy the archive.
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(3, LatentHeavy()
                           .FaultTimes(Duration::Hours(1e12),
                                       Duration::Hours(1e12))  // inject via common mode
                           .ScrubEvery(Duration::Hours(100.0)))
          .CommonMode(CommonModeSource{"simultaneous latent", Rate::PerHour(1.0 / 300.0),
                                       {0, 1}, 1.0, /*visible_fraction=*/0.0})
          .Build();
  ASSERT_TRUE(scenario.scrub_staggered);  // the default

  Simulator sim;
  Rng rng(17);
  TraceRecorder trace;
  ReplicatedStorageSystem system(&sim, &rng, scenario, &trace);
  system.Start();
  sim.RunUntil(Duration::Hours(320.0));

  std::vector<Duration> detections;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kLatentDetected) {
      detections.push_back(event.time);
    }
  }
  ASSERT_GE(detections.size(), 2u);
  EXPECT_NE(detections[0].hours(), detections[1].hours());
}

TEST(HorizonTest, OutcomeCensoredExactlyAtHorizon) {
  // Eight replicas: effectively lossless.
  const Scenario scenario =
      ScenarioBuilder().Replicas(8, LatentHeavy().ScrubEvery(Duration::Hours(50.0))).Build();
  Simulator sim;
  Rng rng(31);
  ReplicatedStorageSystem system(&sim, &rng, scenario);
  system.Start();
  sim.RunUntil(Duration::Years(3.0));
  EXPECT_FALSE(system.lost());
  EXPECT_DOUBLE_EQ(sim.now().years(), 3.0);
}

TEST(MetricsMergeTest, AggregationIsAssociative) {
  const Scenario scenario =
      ScenarioBuilder().Replicas(2, LatentHeavy().ScrubEvery(Duration::Hours(100.0))).Build();
  SimMetrics ab;
  SimMetrics ba;
  const RunOutcome a = RunToLossOrHorizon(scenario, 1, Duration::Years(50.0));
  const RunOutcome b = RunToLossOrHorizon(scenario, 2, Duration::Years(50.0));
  ab.Merge(a.metrics);
  ab.Merge(b.metrics);
  ba.Merge(b.metrics);
  ba.Merge(a.metrics);
  EXPECT_EQ(ab.latent_faults, ba.latent_faults);
  EXPECT_EQ(ab.latent_detections, ba.latent_detections);
  EXPECT_EQ(ab.detection_latency_hours.count(), ba.detection_latency_hours.count());
  EXPECT_NEAR(ab.detection_latency_hours.mean(), ba.detection_latency_hours.mean(),
              1e-9);
}

TEST(CommonModeLatentTest, LatentHitsAwaitScrubDetection) {
  // Four replicas, the worm reaches only three: the archive degrades but
  // survives, so detection (not loss) handles every hit.
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(4, ReplicaSpec()
                           .FaultTimes(Duration::Hours(1e12), Duration::Hours(1e12))
                           .RepairTimes(Duration::Zero(), Duration::Hours(1.0))
                           .ScrubEvery(Duration::Hours(100.0)))
          .CommonMode(CommonModeSource{"silent corruption worm",
                                       Rate::PerHour(1.0 / 500.0), {0, 1, 2}, 0.8,
                                       /*visible_fraction=*/0.0})
          .Build();
  const RunOutcome outcome = RunToLossOrHorizon(scenario, 37, Duration::Years(10.0));
  EXPECT_GT(outcome.metrics.latent_faults, 50);
  EXPECT_GT(outcome.metrics.latent_detections, 50);
  EXPECT_EQ(outcome.metrics.visible_faults, 0);
  EXPECT_EQ(outcome.metrics.common_mode_faults, outcome.metrics.latent_faults);
}

}  // namespace
}  // namespace longstore
