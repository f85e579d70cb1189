// Tests for the allocation-free engine internals (generation-stamped slot
// handles, lazy cancellation) and the trial-reuse contract (Simulator::Reset,
// ReplicatedStorageSystem::Reset, TrialRunner).

#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/storage/replicated_system.h"
#include "tests/sim_test_client.h"

namespace longstore {
namespace {

// Local hash stepper so this test does not depend on src/util/random.h.
uint64_t SplitMix64NextForTest(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- slot/generation machinery -------------------------------------------

TEST(EventSlotTest, CancelledSlotIsReusedWithFreshGeneration) {
  CallbackClient client;
  Simulator sim(&client);
  std::vector<int> fired;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { fired.push_back(a); });

  const EventId first = sim.ScheduleAt(Duration::Hours(1.0), record, 1);
  EXPECT_TRUE(sim.Cancel(first));
  // The next schedule reuses the freed slot; the stale handle must not be
  // able to cancel (or otherwise affect) the new occupant.
  const EventId second = sim.ScheduleAt(Duration::Hours(2.0), record, 2);
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.Cancel(first));
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventSlotTest, FiredSlotHandleGoesStale) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t noop = client.Add([] {});
  const EventId first = sim.ScheduleAt(Duration::Hours(1.0), noop);
  sim.Run();
  // Slot freed by firing, then reused: the old handle must stay dead.
  const EventId second = sim.ScheduleAt(Duration::Hours(2.0), noop);
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_TRUE(sim.Cancel(second));
}

TEST(EventSlotTest, ManyCancelScheduleCyclesKeepBookkeepingExact) {
  CallbackClient client;
  Simulator sim(&client);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  // Repeatedly schedule two, cancel one: lazy deletion leaves stale heap
  // entries behind, which must all be skipped without miscounting.
  std::vector<EventId> keep;
  for (int i = 0; i < 1000; ++i) {
    const EventId victim =
        sim.ScheduleAt(Duration::Hours(static_cast<double>(i) + 0.5), count);
    keep.push_back(sim.ScheduleAt(Duration::Hours(static_cast<double>(i) + 1.0), count));
    EXPECT_TRUE(sim.Cancel(victim));
  }
  EXPECT_EQ(sim.pending_count(), 1000u);
  sim.Run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.processed_count(), 1000u);
  for (const EventId id : keep) {
    EXPECT_FALSE(sim.Cancel(id));  // all fired
  }
}

TEST(EventSlotTest, TieBreakSurvivesCancellationAndSlotReuse) {
  CallbackClient client;
  Simulator sim(&client);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  // Interleave same-time events with cancellations so that later schedules
  // reuse earlier slots; FIFO order among survivors must still hold.
  std::vector<EventId> victims;
  for (int i = 0; i < 20; ++i) {
    const EventId id = sim.ScheduleAt(Duration::Hours(5.0), record, i);
    if (i % 3 == 0) {
      victims.push_back(id);
    }
  }
  for (const EventId id : victims) {
    EXPECT_TRUE(sim.Cancel(id));
  }
  for (int i = 20; i < 30; ++i) {  // reuse the freed slots at the same time
    sim.ScheduleAt(Duration::Hours(5.0), record, i);
  }
  sim.Run();
  std::vector<int> expected;
  for (int i = 0; i < 30; ++i) {
    if (i < 20 && i % 3 == 0) {
      continue;
    }
    expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventSlotTest, DeepQueueKeepsOrderUnderInterleavedScheduling) {
  // Thousands of pending events, far deeper than any trial's queue, with
  // more scheduled from inside callbacks while the queue drains: time must
  // never run backwards.
  CallbackClient client;
  Simulator sim(&client);
  uint64_t state = 12345;
  Duration last = Duration::Zero();
  int fired = 0;
  bool monotone = true;
  uint16_t chain = 0;
  chain = client.Add([&] {
    if (sim.now() < last) {
      monotone = false;
    }
    last = sim.now();
    ++fired;
    if (fired % 3 == 0) {
      // Re-schedule anywhere from just ahead of the clock to far beyond
      // every initially scheduled event.
      const double ahead =
          static_cast<double>(SplitMix64NextForTest(state) % 1000000) / 10.0;
      sim.ScheduleAfter(Duration::Hours(ahead), chain);
    }
  });
  for (int i = 0; i < 6000; ++i) {
    const double t = static_cast<double>(SplitMix64NextForTest(state) % 100000) / 10.0;
    sim.ScheduleAt(Duration::Hours(t), chain);
  }
  sim.RunUntil(Duration::Hours(50000.0));
  EXPECT_TRUE(monotone);
  EXPECT_GE(fired, 6000);
  EXPECT_EQ(sim.processed_count(), static_cast<uint64_t>(fired));
  // Whatever is still pending lies beyond the horizon.
  EXPECT_DOUBLE_EQ(sim.now().hours(), 50000.0);
}

// --- Reset() -------------------------------------------------------------

TEST(SimulatorResetTest, ResetRestoresPristineState) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t noop = client.Add([] {});
  sim.ScheduleAt(Duration::Hours(1.0), noop);
  sim.ScheduleAt(Duration::Hours(2.0), noop);
  const EventId pending = sim.ScheduleAt(Duration::Hours(3.0), noop);
  sim.Step();
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.now().hours(), 0.0);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.processed_count(), 0u);
  EXPECT_FALSE(sim.Step());
  // Handles from before the Reset are invalid.
  EXPECT_FALSE(sim.Cancel(pending));
  // The engine is fully usable again.
  sim.ScheduleAt(Duration::Hours(1.0), noop);
  sim.Run();
  EXPECT_EQ(sim.processed_count(), 1u);
}

TEST(SimulatorResetTest, StaleHandleCannotCancelPostResetOccupant) {
  // The third pre-Reset event and the third post-Reset event occupy the same
  // slot; the old handle must not alias the new occupant.
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t noop = client.Add([] {});
  sim.ScheduleAt(Duration::Hours(1.0), noop);
  sim.ScheduleAt(Duration::Hours(2.0), noop);
  const EventId before = sim.ScheduleAt(Duration::Hours(3.0), noop);
  sim.Reset();
  sim.ScheduleAt(Duration::Hours(1.0), noop);
  sim.ScheduleAt(Duration::Hours(2.0), noop);
  const EventId after = sim.ScheduleAt(Duration::Hours(3.0), noop);
  EXPECT_NE(before, after);
  EXPECT_FALSE(sim.Cancel(before));  // stale: must not cancel the new event
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.Run();
  EXPECT_EQ(sim.processed_count(), 3u);
}

TEST(SimulatorResetTest, ReusedEngineReproducesEventSequence) {
  CallbackClient client;
  Simulator sim(&client);
  std::vector<std::vector<int>> rounds;
  const uint16_t record =
      client.Add([&](int32_t a, int32_t) { rounds.back().push_back(a); });
  for (int round = 0; round < 3; ++round) {
    rounds.emplace_back();
    sim.Reset();
    for (int i = 0; i < 50; ++i) {
      const EventId id =
          sim.ScheduleAt(Duration::Hours(static_cast<double>((i * 7) % 13)), record, i);
      if (i % 4 == 0) {
        sim.Cancel(id);
      }
    }
    sim.Run();
  }
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(rounds[1], rounds[2]);
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

TEST(TrialRunnerTest, PaperConventionReuseMatchesFresh) {
  const Scenario scenario =
      ScenarioBuilder()
          .Replicas(3, ReplicaSpec()
                           .FaultTimes(Duration::Hours(1500.0), Duration::Hours(500.0))
                           .RepairTimes(Duration::Hours(10.0), Duration::Hours(10.0))
                           .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(60.0))))
          .Convention(RateConvention::kPaper)
          .Build();
  TrialRunner runner(scenario);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const RunOutcome reused = runner.Run(seed, Duration::Years(300.0));
    const RunOutcome fresh = RunToLossOrHorizon(scenario, seed, Duration::Years(300.0));
    ExpectSameOutcome(reused, fresh);
  }
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
