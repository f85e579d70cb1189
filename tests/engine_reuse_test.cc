// Tests for the trial-reuse contract (Simulator::Reset,
// ReplicatedStorageSystem::Reset, TrialRunner) and for the storage system's
// use of the clock table: one clock per replica and per common-mode source,
// each holding exactly its one pending event.

#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/storage/replicated_system.h"
#include "tests/sim_test_client.h"

namespace longstore {
namespace {

// --- Reset() -------------------------------------------------------------

TEST(SimulatorResetTest, ResetRestoresPristineState) {
  CallbackClient client;
  Simulator sim(&client, 3);
  const uint16_t noop = client.Add([] {});
  sim.ArmAt(0, Duration::Hours(1.0), noop);
  sim.ArmAt(1, Duration::Hours(2.0), noop);
  sim.ArmAt(2, Duration::Hours(3.0), noop);
  sim.Step();
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.now().hours(), 0.0);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.processed_count(), 0u);
  EXPECT_EQ(sim.clock_count(), 3);  // the table keeps its size
  EXPECT_EQ(sim.client(), &client);
  for (int clock = 0; clock < 3; ++clock) {
    EXPECT_FALSE(sim.armed(clock));
  }
  EXPECT_FALSE(sim.Step());
  // The engine is fully usable again.
  sim.ArmAt(2, Duration::Hours(1.0), noop);
  sim.Run();
  EXPECT_EQ(sim.processed_count(), 1u);
}

TEST(SimulatorResetTest, ReusedEngineReproducesEventSequence) {
  // Sequence numbers restart at Reset, so a replayed program breaks its
  // equal-time ties exactly as the first run did.
  CallbackClient client;
  Simulator sim(&client, 13);
  std::vector<std::vector<int>> rounds;
  const uint16_t record = client.Add([&](int clock) { rounds.back().push_back(clock); });
  for (int round = 0; round < 3; ++round) {
    rounds.emplace_back();
    sim.Reset();
    for (int i = 0; i < 50; ++i) {
      const int clock = (i * 5) % 13;
      sim.ArmAt(clock, Duration::Hours(static_cast<double>((i * 7) % 4)), record);
      if (i % 4 == 0) {
        sim.Disarm((i * 3) % 13);
      }
    }
    sim.Run();
  }
  EXPECT_FALSE(rounds[0].empty());
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(rounds[1], rounds[2]);
}

// --- the storage system's clock table ------------------------------------

// Replays a trial one event at a time and checks after each that every
// clock holds exactly the event the state machine says is pending: a
// healthy replica its fault clock, a latent one its detection (when it has
// a scrub), a detected one its repair, and each common-mode source its next
// event. The correlated scenario makes every first fault redraw the healthy
// replicas' clocks, which must leave the faulty replicas' clocks armed.
TEST(ClockTableTest, EachClockHoldsItsPendingEvent) {
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(3, ReplicaSpec()
                           .FaultTimes(Duration::Hours(3000.0), Duration::Hours(1000.0))
                           .RepairTimes(Duration::Hours(20.0), Duration::Hours(20.0))
                           .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(100.0))))
          .Correlation(0.3)
          .CommonMode(
              CommonModeSource{"rack", Rate::PerHour(1.0 / 5000.0), {0, 2}, 0.5, 0.5})
          .Build();
  Simulator sim;
  Rng rng(11);
  ReplicatedStorageSystem system(&sim, &rng, scenario);
  ASSERT_EQ(sim.clock_count(), 4);  // three replicas, one source
  int64_t events = 0;
  int64_t correlated_redraws = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    sim.Reset();
    rng.Reseed(seed);
    system.Reset();
    system.Start();
    while (!system.lost() && sim.Step(Duration::Years(50.0))) {
      ++events;
      if (system.lost()) {
        break;
      }
      for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(sim.armed(i)) << "replica " << i << " after event " << events;
      }
      EXPECT_TRUE(sim.armed(3)) << "source after event " << events;
      correlated_redraws += system.faulty_count() == 1 ? 1 : 0;
    }
  }
  EXPECT_GT(events, 1000);
  EXPECT_GT(correlated_redraws, 100);
}

// --- trial reuse ---------------------------------------------------------

void ExpectSameOutcome(const RunOutcome& a, const RunOutcome& b) {
  ASSERT_EQ(a.loss_time.has_value(), b.loss_time.has_value());
  if (a.loss_time) {
    EXPECT_EQ(a.loss_time->hours(), b.loss_time->hours());
  }
  EXPECT_EQ(a.metrics.visible_faults, b.metrics.visible_faults);
  EXPECT_EQ(a.metrics.latent_faults, b.metrics.latent_faults);
  EXPECT_EQ(a.metrics.latent_detections, b.metrics.latent_detections);
  EXPECT_EQ(a.metrics.repairs_completed, b.metrics.repairs_completed);
  EXPECT_EQ(a.metrics.detection_latency_hours.count(),
            b.metrics.detection_latency_hours.count());
  EXPECT_EQ(a.metrics.detection_latency_hours.mean(),
            b.metrics.detection_latency_hours.mean());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(a.metrics.windows_opened[i], b.metrics.windows_opened[i]);
    EXPECT_EQ(a.metrics.windows_survived[i], b.metrics.windows_survived[i]);
    for (int j = 0; j < 2; ++j) {
      EXPECT_EQ(a.metrics.second_faults[i][j], b.metrics.second_faults[i][j]);
    }
  }
}

Scenario BusyMirrorScenario() {
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .FaultTimes(Duration::Hours(2000.0), Duration::Hours(400.0))
                       .RepairTimes(Duration::Hours(2.0), Duration::Hours(2.0))
                       .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(40.0))))
      .Build();
}

TEST(TrialRunnerTest, ReusedRunnerMatchesFreshConstruction) {
  const Scenario scenario = BusyMirrorScenario();
  TrialRunner runner(scenario);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const RunOutcome reused = runner.Run(seed, Duration::Years(500.0));
    const RunOutcome fresh = RunToLossOrHorizon(scenario, seed, Duration::Years(500.0));
    ExpectSameOutcome(reused, fresh);
  }
}

TEST(TrialRunnerTest, SameSeedIsDeterministicAcrossReuse) {
  TrialRunner runner(BusyMirrorScenario());
  const RunOutcome first = runner.Run(42, Duration::Years(500.0));
  // Intervening trials with other seeds must not disturb a replay.
  (void)runner.Run(7, Duration::Years(500.0));
  (void)runner.Run(99, Duration::Years(500.0));
  const RunOutcome replay = runner.Run(42, Duration::Years(500.0));
  ExpectSameOutcome(first, replay);
}

TEST(TrialRunnerTest, CommonModeReuseMatchesFresh) {
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(3, ReplicaSpec()
                           .FaultTimes(Duration::Hours(5000.0), Duration::Hours(1e12))
                           .RepairTimes(Duration::Hours(24.0), Duration::Hours(24.0))
                           .ScrubEvery(Duration::Hours(200.0)))
          .CommonMode(
              CommonModeSource{"rack", Rate::PerHour(1.0 / 4000.0), {0, 1}, 0.8, 0.5})
          .Build();
  TrialRunner runner(scenario);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const RunOutcome reused = runner.Run(seed, Duration::Years(200.0));
    const RunOutcome fresh = RunToLossOrHorizon(scenario, seed, Duration::Years(200.0));
    ExpectSameOutcome(reused, fresh);
  }
}

TEST(TrialRunnerTest, ExtremeWeibullAgeDegradesGracefully) {
  // (age/scale)^shape overflows to infinity for this config; the O(1)
  // residual draw must fall back to "fails soon" (as the old rejection loop
  // did), not schedule an infinite delay and throw.
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(2, ReplicaSpec()
                           .FaultTimes(Duration::Hours(100.0), Duration::Hours(1e6))
                           .RepairTimes(Duration::Hours(2.0), Duration::Hours(2.0))
                           .Weibull(100.0)
                           .InitialAge(Duration::Hours(1e9)))
          .Build();
  TrialRunner runner(scenario);
  const RunOutcome outcome = runner.Run(1, Duration::Years(1.0));
  ASSERT_TRUE(outcome.loss_time.has_value());  // ancient drives fail at once
  EXPECT_LT(outcome.loss_time->hours(), 1.0);
}

TEST(TrialRunnerTest, InvalidConfigThrowsOnConstruction) {
  const Scenario empty;  // no replicas
  EXPECT_THROW(TrialRunner runner(empty), std::invalid_argument);
}

TEST(SystemResetTest, ResetRestoresAllHealthy) {
  const Scenario scenario = BusyMirrorScenario();
  Simulator sim;
  Rng rng(3);
  ReplicatedStorageSystem system(&sim, &rng, scenario);
  system.Start();
  sim.RunUntil(Duration::Years(1000.0));
  ASSERT_TRUE(system.lost());
  sim.Reset();
  rng.Reseed(3);
  system.Reset();
  EXPECT_FALSE(system.lost());
  EXPECT_EQ(system.faulty_count(), 0);
  for (int i = 0; i < scenario.replica_count(); ++i) {
    EXPECT_EQ(system.replica_state(i), ReplicaState::kHealthy);
  }
  EXPECT_EQ(system.metrics().visible_faults, 0);
  // And a restarted run is valid again (Start() after Reset is legal).
  system.Start();
  sim.RunUntil(Duration::Years(1.0));
}

}  // namespace
}  // namespace longstore
