#include "src/sim/simulator.h"

#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/sim_test_client.h"

namespace longstore {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  CallbackClient client;
  Simulator sim(&client);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  sim.ScheduleAt(Duration::Hours(3.0), record, 3);
  sim.ScheduleAt(Duration::Hours(1.0), record, 1);
  sim.ScheduleAt(Duration::Hours(2.0), record, 2);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().hours(), 3.0);
  EXPECT_EQ(sim.processed_count(), 3u);
}

TEST(SimulatorTest, EqualTimesFireInScheduleOrder) {
  CallbackClient client;
  Simulator sim(&client);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int32_t a, int32_t) { order.push_back(a); });
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Duration::Hours(5.0), record, i);
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  CallbackClient client;
  Simulator sim(&client);
  Duration second_fire;
  const uint16_t inner = client.Add([&] { second_fire = sim.now(); });
  const uint16_t outer =
      client.Add([&] { sim.ScheduleAfter(Duration::Hours(3.0), inner); });
  sim.ScheduleAt(Duration::Hours(2.0), outer);
  sim.Run();
  EXPECT_DOUBLE_EQ(second_fire.hours(), 5.0);
}

TEST(SimulatorTest, PayloadWordsAreDeliveredVerbatim) {
  CallbackClient client;
  Simulator sim(&client);
  int32_t got_a = 0;
  int32_t got_b = 0;
  const uint16_t record = client.Add([&](int32_t a, int32_t b) {
    got_a = a;
    got_b = b;
  });
  sim.ScheduleAt(Duration::Hours(1.0), record, -7, 42);
  sim.Run();
  EXPECT_EQ(got_a, -7);
  EXPECT_EQ(got_b, 42);
}

TEST(SimulatorTest, CancelPreventsDelivery) {
  CallbackClient client;
  Simulator sim(&client);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  const EventId id = sim.ScheduleAt(Duration::Hours(1.0), mark);
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.processed_count(), 0u);
}

TEST(SimulatorTest, CancelFromInsideCallback) {
  CallbackClient client;
  Simulator sim(&client);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  const EventId victim = sim.ScheduleAt(Duration::Hours(2.0), mark);
  const uint16_t canceller = client.Add([&] { EXPECT_TRUE(sim.Cancel(victim)); });
  sim.ScheduleAt(Duration::Hours(1.0), canceller);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  CallbackClient client;
  Simulator sim(&client);
  EXPECT_FALSE(sim.Cancel(EventId()));
  EXPECT_FALSE(sim.Cancel(EventId(424242)));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t noop = client.Add([] {});
  const EventId id = sim.ScheduleAt(Duration::Hours(1.0), noop);
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, RunUntilAdvancesClockToHorizon) {
  CallbackClient client;
  Simulator sim(&client);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  sim.ScheduleAt(Duration::Hours(1.0), count);
  sim.ScheduleAt(Duration::Hours(10.0), count);
  sim.RunUntil(Duration::Hours(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 5.0);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.RunUntil(Duration::Hours(20.0));
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 20.0);
}

TEST(SimulatorTest, RunUntilBoundaryInclusive) {
  CallbackClient client;
  Simulator sim(&client);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  sim.ScheduleAt(Duration::Hours(5.0), mark);
  sim.RunUntil(Duration::Hours(5.0));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepHonorsHorizon) {
  CallbackClient client;
  Simulator sim(&client);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  sim.ScheduleAt(Duration::Hours(1.0), count);
  sim.ScheduleAt(Duration::Hours(10.0), count);
  EXPECT_TRUE(sim.Step(Duration::Hours(5.0)));
  EXPECT_FALSE(sim.Step(Duration::Hours(5.0)));  // next event lies beyond
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 1.0);  // Step never advances past events
  EXPECT_TRUE(sim.Step());  // unbounded: fires the remaining event
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopHaltsRun) {
  CallbackClient client;
  Simulator sim(&client);
  int fired = 0;
  const uint16_t stopper = client.Add([&] {
    ++fired;
    sim.Stop();
  });
  const uint16_t count = client.Add([&] { ++fired; });
  sim.ScheduleAt(Duration::Hours(1.0), stopper);
  sim.ScheduleAt(Duration::Hours(2.0), count);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(SimulatorTest, StopHaltsRunUntilWithoutAdvancingClock) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t stopper = client.Add([&] { sim.Stop(); });
  sim.ScheduleAt(Duration::Hours(1.0), stopper);
  sim.RunUntil(Duration::Hours(100.0));
  EXPECT_DOUBLE_EQ(sim.now().hours(), 1.0);
}

TEST(SimulatorTest, PastSchedulingThrows) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t noop = client.Add([] {});
  sim.ScheduleAt(Duration::Hours(2.0), noop);
  sim.Run();
  EXPECT_THROW(sim.ScheduleAt(Duration::Hours(1.0), noop), std::invalid_argument);
  EXPECT_THROW(sim.ScheduleAfter(Duration::Hours(-1.0), noop), std::invalid_argument);
}

TEST(SimulatorTest, InfiniteTimeThrows) {
  CallbackClient client;
  Simulator sim(&client);
  const uint16_t noop = client.Add([] {});
  EXPECT_THROW(sim.ScheduleAt(Duration::Infinite(), noop), std::invalid_argument);
}

TEST(SimulatorTest, SchedulingWithoutClientThrows) {
  Simulator sim;
  EXPECT_THROW(sim.ScheduleAt(Duration::Hours(1.0), 0), std::logic_error);
}

TEST(SimulatorTest, CascadedSchedulingFromCallbacks) {
  CallbackClient client;
  Simulator sim(&client);
  int depth = 0;
  uint16_t recurse = 0;
  recurse = client.Add([&] {
    if (++depth < 100) {
      sim.ScheduleAfter(Duration::Hours(1.0), recurse);
    }
  });
  sim.ScheduleAfter(Duration::Hours(1.0), recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 100.0);
}

// Local hash stepper so this test does not depend on src/util/random.h.
uint64_t SplitMix64NextForTest(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  CallbackClient client;
  Simulator sim(&client);
  uint64_t state = 987;
  Duration last = Duration::Zero();
  bool monotone = true;
  const uint16_t check = client.Add([&] {
    if (sim.now() < last) {
      monotone = false;
    }
    last = sim.now();
  });
  for (int i = 0; i < 20000; ++i) {
    const double t = static_cast<double>(SplitMix64NextForTest(state) % 1000000) / 100.0;
    sim.ScheduleAt(Duration::Hours(t), check);
  }
  sim.Run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.processed_count(), 20000u);
}

// --- firing rule against a reference model --------------------------------

// The firing rule stated as a model: pending events sit in an ordered set
// keyed by (time, schedule sequence number), and the smallest key fires next.
class ReferenceQueue {
 public:
  double now() const { return now_; }

  // Labels are dense and assigned in schedule order.
  void ScheduleAt(double t, int label) {
    const Key key{t, next_seq_++, label};
    pending_.insert(key);
    keys_.push_back(key);
  }

  bool Cancel(int label) { return pending_.erase(keys_[static_cast<size_t>(label)]) == 1; }

  // Removes the next event and returns its label, or -1 when none is left.
  int PopNext() {
    if (pending_.empty()) {
      return -1;
    }
    const Key key = *pending_.begin();
    pending_.erase(pending_.begin());
    now_ = std::get<0>(key);
    return std::get<2>(key);
  }

 private:
  using Key = std::tuple<double, uint64_t, int>;
  std::set<Key> pending_;
  std::vector<Key> keys_;
  uint64_t next_seq_ = 0;
  double now_ = 0.0;
};

// The same label-addressed interface over the engine.
class EngineQueue {
 public:
  EngineQueue(Simulator* sim, uint16_t tag) : sim_(sim), tag_(tag) {}

  double now() const { return sim_->now().hours(); }

  void ScheduleAt(double t, int label) {
    ids_.push_back(sim_->ScheduleAt(Duration::Hours(t), tag_, label));
  }

  bool Cancel(int label) { return sim_->Cancel(ids_[static_cast<size_t>(label)]); }

 private:
  Simulator* sim_;
  uint16_t tag_;
  std::vector<EventId> ids_;
};

// A tie-heavy event program run unchanged against either queue. Times sit
// on a 0.5 h grid, so most firing decisions are sequence tie-breaks. Labels
// with label % 6 == 0 are cancelled as soon as they are scheduled; those
// with label % 6 == 3 are cancelled from inside the callback of label - 2,
// which may already be too late. Odd labels schedule a successor up to
// 2.5 h ahead, one in six at delay 0. Because every firing steps a shared
// hash stream, a single out-of-order firing changes all that follows.
template <typename Queue>
class TieHeavyProgram {
 public:
  static constexpr int kInitialEvents = 7000;
  static constexpr int kMaxEvents = 10000;

  explicit TieHeavyProgram(Queue* queue) : queue_(queue) {}

  void ScheduleInitial() {
    for (int i = 0; i < kInitialEvents; ++i) {
      Schedule(0.5 * static_cast<double>(SplitMix64NextForTest(state_) % 400));
    }
  }

  void OnFire(int label) {
    fired_.emplace_back(queue_->now(), label);
    if (label % 6 == 1 && label + 2 < scheduled_) {
      cancel_results_.push_back(queue_->Cancel(label + 2));
    }
    if (label % 2 == 1 && scheduled_ < kMaxEvents) {
      Schedule(queue_->now() + 0.5 * static_cast<double>(SplitMix64NextForTest(state_) % 6));
    }
  }

  int scheduled() const { return scheduled_; }
  const std::vector<std::pair<double, int>>& fired() const { return fired_; }
  const std::vector<bool>& cancel_results() const { return cancel_results_; }

 private:
  void Schedule(double t) {
    const int label = scheduled_++;
    queue_->ScheduleAt(t, label);
    if (label % 6 == 0) {
      cancel_results_.push_back(queue_->Cancel(label));
    }
  }

  Queue* queue_;
  uint64_t state_ = 2024;
  int scheduled_ = 0;
  std::vector<std::pair<double, int>> fired_;
  std::vector<bool> cancel_results_;
};

TEST(SimulatorTest, FiringOrderMatchesTimeSeqReferenceModel) {
  ReferenceQueue model;
  TieHeavyProgram<ReferenceQueue> expected(&model);
  expected.ScheduleInitial();
  for (int label = model.PopNext(); label >= 0; label = model.PopNext()) {
    expected.OnFire(label);
  }

  CallbackClient client;
  Simulator sim(&client);
  EngineQueue engine(&sim, 0);
  TieHeavyProgram<EngineQueue> actual(&engine);
  ASSERT_EQ(client.Add([&](int32_t a, int32_t) { actual.OnFire(a); }), 0);
  actual.ScheduleInitial();
  sim.Run();

  // The program is big and tie-heavy enough to mean something.
  ASSERT_EQ(expected.scheduled(), TieHeavyProgram<ReferenceQueue>::kMaxEvents);
  ASSERT_GT(expected.fired().size(), 6000u);
  size_t tie_breaks = 0;
  for (size_t i = 1; i < expected.fired().size(); ++i) {
    tie_breaks += expected.fired()[i].first == expected.fired()[i - 1].first ? 1 : 0;
  }
  EXPECT_GT(tie_breaks, expected.fired().size() / 2);

  EXPECT_EQ(actual.scheduled(), expected.scheduled());
  EXPECT_EQ(actual.cancel_results(), expected.cancel_results());
  ASSERT_EQ(actual.fired().size(), expected.fired().size());
  for (size_t i = 0; i < expected.fired().size(); ++i) {
    ASSERT_EQ(actual.fired()[i], expected.fired()[i]) << "firing #" << i;
  }
  EXPECT_EQ(sim.processed_count(), expected.fired().size());
  EXPECT_EQ(sim.pending_count(), 0u);
}

}  // namespace
}  // namespace longstore
