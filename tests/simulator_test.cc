#include "src/sim/simulator.h"

#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/sim_test_client.h"

namespace longstore {
namespace {

TEST(SimulatorTest, ClocksFireInTimeOrder) {
  CallbackClient client;
  Simulator sim(&client, 3);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int clock) { order.push_back(clock); });
  sim.ArmAt(0, Duration::Hours(3.0), record);
  sim.ArmAt(1, Duration::Hours(1.0), record);
  sim.ArmAt(2, Duration::Hours(2.0), record);
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_DOUBLE_EQ(sim.now().hours(), 3.0);
  EXPECT_EQ(sim.processed_count(), 3u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, EqualTimesFireInArmingOrderNotClockOrder) {
  CallbackClient client;
  Simulator sim(&client, 10);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int clock) { order.push_back(clock); });
  const std::vector<int> arming = {7, 2, 9, 0, 4, 1, 8, 3, 6, 5};
  for (const int clock : arming) {
    sim.ArmAt(clock, Duration::Hours(5.0), record);
  }
  sim.Run();
  EXPECT_EQ(order, arming);
}

TEST(SimulatorTest, TagAndClockAreDeliveredVerbatim) {
  CallbackClient client;
  Simulator sim(&client, 4);
  std::vector<std::pair<int, int>> fired;  // (handler, clock)
  const uint16_t first = client.Add([&](int clock) { fired.emplace_back(0, clock); });
  const uint16_t second = client.Add([&](int clock) { fired.emplace_back(1, clock); });
  sim.ArmAt(3, Duration::Hours(1.0), second);
  sim.ArmAt(0, Duration::Hours(2.0), first);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<std::pair<int, int>>{{1, 3}, {0, 0}}));
}

TEST(SimulatorTest, RearmReplacesThePendingEvent) {
  CallbackClient client;
  Simulator sim(&client, 2);
  std::vector<std::pair<double, int>> fired;
  const uint16_t record =
      client.Add([&](int clock) { fired.emplace_back(sim.now().hours(), clock); });
  sim.ArmAt(0, Duration::Hours(5.0), record);
  sim.ArmAt(0, Duration::Hours(2.0), record);  // earlier: replaces
  sim.ArmAt(1, Duration::Hours(3.0), record);
  sim.ArmAt(1, Duration::Hours(7.0), record);  // later: replaces too
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<std::pair<double, int>>{{2.0, 0}, {7.0, 1}}));
}

TEST(SimulatorTest, RearmAtTheSameTimeTakesANewSequenceNumber) {
  CallbackClient client;
  Simulator sim(&client, 3);
  std::vector<int> order;
  const uint16_t record = client.Add([&](int clock) { order.push_back(clock); });
  sim.ArmAt(0, Duration::Hours(4.0), record);
  sim.ArmAt(1, Duration::Hours(4.0), record);
  sim.ArmAt(2, Duration::Hours(4.0), record);
  sim.ArmAt(0, Duration::Hours(4.0), record);  // now armed last
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(SimulatorTest, DisarmPreventsDelivery) {
  CallbackClient client;
  Simulator sim(&client, 2);
  std::vector<int> fired;
  const uint16_t record = client.Add([&](int clock) { fired.push_back(clock); });
  sim.ArmAt(0, Duration::Hours(1.0), record);
  sim.ArmAt(1, Duration::Hours(2.0), record);
  EXPECT_TRUE(sim.armed(0));
  sim.Disarm(0);
  EXPECT_FALSE(sim.armed(0));
  sim.Disarm(0);  // disarming a disarmed clock is a no-op
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.processed_count(), 1u);
}

TEST(SimulatorTest, DisarmFromInsideCallback) {
  CallbackClient client;
  Simulator sim(&client, 2);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  const uint16_t disarm_other = client.Add([&] { sim.Disarm(1); });
  sim.ArmAt(0, Duration::Hours(1.0), disarm_other);
  sim.ArmAt(1, Duration::Hours(2.0), mark);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, FiredClockIsDisarmedBeforeItsClientRuns) {
  CallbackClient client;
  Simulator sim(&client, 1);
  bool armed_in_callback = true;
  const uint16_t probe = client.Add([&](int clock) { armed_in_callback = sim.armed(clock); });
  sim.ArmAt(0, Duration::Hours(1.0), probe);
  sim.Run();
  EXPECT_FALSE(armed_in_callback);
  EXPECT_FALSE(sim.armed(0));
}

TEST(SimulatorTest, ArmAfterUsesCurrentTime) {
  CallbackClient client;
  Simulator sim(&client, 2);
  Duration second_fire;
  const uint16_t inner = client.Add([&] { second_fire = sim.now(); });
  const uint16_t outer =
      client.Add([&] { sim.ArmAfter(1, Duration::Hours(3.0), inner); });
  sim.ArmAt(0, Duration::Hours(2.0), outer);
  sim.Run();
  EXPECT_DOUBLE_EQ(second_fire.hours(), 5.0);
}

TEST(SimulatorTest, ZeroDelayArmingFromACallbackFiresAfterEarlierArmings) {
  // At t = 2 clock 0 fires and arms clock 2 with delay 0. Clock 1, armed
  // for t = 2 before that, keeps its earlier sequence number and fires
  // first; clock 2 still fires at t = 2.
  CallbackClient client;
  Simulator sim(&client, 3);
  std::vector<std::pair<double, int>> fired;
  const uint16_t record =
      client.Add([&](int clock) { fired.emplace_back(sim.now().hours(), clock); });
  const uint16_t spawn = client.Add([&](int clock) {
    fired.emplace_back(sim.now().hours(), clock);
    sim.ArmAfter(2, Duration::Zero(), record);
  });
  sim.ArmAt(0, Duration::Hours(2.0), spawn);
  sim.ArmAt(1, Duration::Hours(2.0), record);
  sim.Run();
  EXPECT_EQ(fired,
            (std::vector<std::pair<double, int>>{{2.0, 0}, {2.0, 1}, {2.0, 2}}));
}

TEST(SimulatorTest, ClockRearmsItselfFromItsOwnCallback) {
  CallbackClient client;
  Simulator sim(&client, 1);
  int depth = 0;
  uint16_t recurse = 0;
  recurse = client.Add([&](int clock) {
    if (++depth < 100) {
      sim.ArmAfter(clock, Duration::Hours(1.0), recurse);
    }
  });
  sim.ArmAfter(0, Duration::Hours(1.0), recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 100.0);
  EXPECT_EQ(sim.processed_count(), 100u);
}

TEST(SimulatorTest, RunUntilAdvancesClockToHorizon) {
  CallbackClient client;
  Simulator sim(&client, 2);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  sim.ArmAt(0, Duration::Hours(1.0), count);
  sim.ArmAt(1, Duration::Hours(10.0), count);
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
  Simulator sim(&client, 1);
  bool fired = false;
  const uint16_t mark = client.Add([&] { fired = true; });
  sim.ArmAt(0, Duration::Hours(5.0), mark);
  sim.RunUntil(Duration::Hours(5.0));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepHonorsHorizon) {
  CallbackClient client;
  Simulator sim(&client, 2);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  sim.ArmAt(0, Duration::Hours(1.0), count);
  sim.ArmAt(1, Duration::Hours(10.0), count);
  EXPECT_TRUE(sim.Step(Duration::Hours(5.0)));
  EXPECT_FALSE(sim.Step(Duration::Hours(5.0)));  // next clock lies beyond
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().hours(), 1.0);  // Step never advances past events
  EXPECT_TRUE(sim.Step());  // unbounded: fires the remaining clock
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, InfiniteHorizonNeverFiresADisarmedClock) {
  CallbackClient client;
  Simulator sim(&client, 3);
  int fired = 0;
  const uint16_t count = client.Add([&] { ++fired; });
  EXPECT_FALSE(sim.Step());  // never armed
  sim.ArmAt(1, Duration::Hours(1.0), count);
  sim.Disarm(1);
  EXPECT_FALSE(sim.Step(Duration::Infinite()));
  sim.RunUntil(Duration::Infinite());
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.processed_count(), 0u);
  EXPECT_TRUE(sim.now().is_infinite());  // RunUntil still moves to its horizon
}

TEST(SimulatorTest, StopHaltsRun) {
  CallbackClient client;
  Simulator sim(&client, 2);
  int fired = 0;
  const uint16_t stopper = client.Add([&] {
    ++fired;
    sim.Stop();
  });
  const uint16_t count = client.Add([&] { ++fired; });
  sim.ArmAt(0, Duration::Hours(1.0), stopper);
  sim.ArmAt(1, Duration::Hours(2.0), count);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.Run();  // a new Run clears the stop request
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.stopped());
}

TEST(SimulatorTest, StopHaltsRunUntilWithoutAdvancingClock) {
  CallbackClient client;
  Simulator sim(&client, 1);
  const uint16_t stopper = client.Add([&] { sim.Stop(); });
  sim.ArmAt(0, Duration::Hours(1.0), stopper);
  sim.RunUntil(Duration::Hours(100.0));
  EXPECT_DOUBLE_EQ(sim.now().hours(), 1.0);
}

template <typename Exception>
void ExpectThrowWithMessage(const std::function<void()>& fn, const std::string& message) {
  try {
    fn();
    FAIL() << "no exception; expected: " << message;
  } catch (const Exception& error) {
    EXPECT_EQ(std::string(error.what()), message);
  }
}

TEST(SimulatorTest, ArmingInThePastThrows) {
  CallbackClient client;
  Simulator sim(&client, 1);
  const uint16_t noop = client.Add([] {});
  sim.ArmAt(0, Duration::Hours(2.0), noop);
  sim.Run();
  ExpectThrowWithMessage<std::invalid_argument>(
      [&] { sim.ArmAt(0, Duration::Hours(1.0), noop); },
      "ArmAt: cannot arm a clock in the past");
  ExpectThrowWithMessage<std::invalid_argument>(
      [&] { sim.ArmAfter(0, Duration::Hours(-1.0), noop); },
      "ArmAt: cannot arm a clock in the past");
  EXPECT_FALSE(sim.armed(0));
}

TEST(SimulatorTest, NonFiniteTimeThrows) {
  CallbackClient client;
  Simulator sim(&client, 1);
  const uint16_t noop = client.Add([] {});
  for (const Duration t : {Duration::Infinite(),
                           Duration::Hours(std::numeric_limits<double>::quiet_NaN())}) {
    ExpectThrowWithMessage<std::invalid_argument>([&] { sim.ArmAt(0, t, noop); },
                                                  "ArmAt: time must be finite");
  }
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, ArmingWithoutClientThrows) {
  Simulator sim;
  ExpectThrowWithMessage<std::logic_error>([&] { sim.ArmAt(0, Duration::Hours(1.0), 0); },
                                           "ArmAt: no SimClient attached");
}

TEST(SimulatorTest, ArmingAClockOutsideTheTableThrows) {
  CallbackClient client;
  Simulator sim(&client, 2);
  const uint16_t noop = client.Add([] {});
  ExpectThrowWithMessage<std::out_of_range>(
      [&] { sim.ArmAt(2, Duration::Hours(1.0), noop); },
      "ArmAt: clock 2 is outside the table of 2");
  ExpectThrowWithMessage<std::out_of_range>(
      [&] { sim.ArmAt(-1, Duration::Hours(1.0), noop); },
      "ArmAt: clock -1 is outside the table of 2");
}

TEST(SimulatorTest, AttachNeedsAClient) {
  Simulator sim;
  ExpectThrowWithMessage<std::invalid_argument>(
      [&] { sim.Attach(nullptr, 2); },
      "Simulator::Attach: needs a client and a clock count >= 0");
  EXPECT_EQ(sim.clock_count(), 0);
}

// --- firing rule against a reference model --------------------------------

// Local hash stepper so this test does not depend on src/util/random.h.
uint64_t SplitMix64NextForTest(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The firing rule stated as a model: each clock's pending event sits in an
// ordered set keyed by (time, arming sequence number), and the smallest key
// fires next. Re-arming a clock erases its old key.
class ReferenceClocks {
 public:
  explicit ReferenceClocks(int clocks) : keys_(static_cast<size_t>(clocks)) {}

  double now() const { return now_; }

  void Arm(int clock, double t) {
    Disarm(clock);
    const Key key{t, next_seq_++, clock};
    pending_.insert(key);
    keys_[static_cast<size_t>(clock)] = key;
  }

  bool armed(int clock) const { return keys_[static_cast<size_t>(clock)].has_value(); }

  void Disarm(int clock) {
    std::optional<Key>& key = keys_[static_cast<size_t>(clock)];
    if (key) {
      pending_.erase(*key);
      key.reset();
    }
  }

  // Fires the next clock and returns it, or -1 when none is armed.
  int PopNext() {
    if (pending_.empty()) {
      return -1;
    }
    const Key key = *pending_.begin();
    Disarm(std::get<2>(key));
    now_ = std::get<0>(key);
    return std::get<2>(key);
  }

 private:
  using Key = std::tuple<double, uint64_t, int>;
  std::set<Key> pending_;
  std::vector<std::optional<Key>> keys_;
  uint64_t next_seq_ = 0;
  double now_ = 0.0;
};

// The same interface over the engine.
class EngineClocks {
 public:
  EngineClocks(Simulator* sim, uint16_t tag) : sim_(sim), tag_(tag) {}

  double now() const { return sim_->now().hours(); }
  void Arm(int clock, double t) { sim_->ArmAt(clock, Duration::Hours(t), tag_); }
  bool armed(int clock) const { return sim_->armed(clock); }
  void Disarm(int clock) { sim_->Disarm(clock); }

 private:
  Simulator* sim_;
  uint16_t tag_;
};

// A tie-heavy program of random arms and disarms over `clocks` clocks, run
// unchanged against either implementation. Times sit on a 0.5 h grid, so
// most firing decisions are sequence tie-breaks. Each firing may re-arm the
// fired clock, re-arm another clock (replacing its pending event), and
// disarm a third; one delay in six is 0. Because every firing steps a
// shared hash stream, a single out-of-order firing changes all that
// follows.
template <typename Clocks>
class RandomArmProgram {
 public:
  static constexpr int kMaxFirings = 6000;

  RandomArmProgram(Clocks* clocks, int clock_count)
      : clocks_(clocks), clock_count_(clock_count) {}

  // Arms about three clocks in four within 20 h of now. The test loops
  // call this whenever every clock has fired or been disarmed before the
  // program's end.
  void ArmSome() {
    for (int clock = 0; clock < clock_count_; ++clock) {
      if (Next() % 4 != 0) {
        clocks_->Arm(clock, clocks_->now() + 0.5 * static_cast<double>(Next() % 40));
      }
    }
  }

  bool done() const { return static_cast<int>(fired_.size()) >= kMaxFirings; }

  void OnFire(int clock) {
    fired_.emplace_back(clocks_->now(), clock);
    if (done()) {
      return;  // stop arming; the remaining clocks drain
    }
    if (Next() % 3 != 0) {
      clocks_->Arm(clock, clocks_->now() + Delay());
    }
    const int other = static_cast<int>(Next() % static_cast<uint64_t>(clock_count_));
    if (Next() % 2 == 0) {
      clocks_->Arm(other, clocks_->now() + Delay());
    }
    const int victim = static_cast<int>(Next() % static_cast<uint64_t>(clock_count_));
    if (Next() % 4 == 0) {
      was_armed_.push_back(clocks_->armed(victim));
      clocks_->Disarm(victim);
    }
  }

  const std::vector<std::pair<double, int>>& fired() const { return fired_; }
  const std::vector<bool>& was_armed() const { return was_armed_; }

 private:
  uint64_t Next() { return SplitMix64NextForTest(state_); }
  double Delay() { return 0.5 * static_cast<double>(Next() % 6); }

  Clocks* clocks_;
  int clock_count_;
  uint64_t state_ = 2024;
  std::vector<std::pair<double, int>> fired_;
  std::vector<bool> was_armed_;
};

TEST(SimulatorTest, FiringOrderMatchesTimeSeqReferenceModel) {
  // 2 to 4 clocks are trial-shaped; 376 is bench_independence's farm.
  for (const int clock_count : {1, 2, 3, 4, 9, 64, 376}) {
    SCOPED_TRACE("clocks = " + std::to_string(clock_count));
    ReferenceClocks model(clock_count);
    RandomArmProgram<ReferenceClocks> expected(&model, clock_count);
    while (!expected.done()) {
      expected.ArmSome();
      for (int clock = model.PopNext(); clock >= 0; clock = model.PopNext()) {
        expected.OnFire(clock);
      }
    }

    CallbackClient client;
    Simulator sim(&client, clock_count);
    EngineClocks engine(&sim, 0);
    RandomArmProgram<EngineClocks> actual(&engine, clock_count);
    ASSERT_EQ(client.Add([&](int clock) { actual.OnFire(clock); }), 0);
    while (!actual.done()) {
      actual.ArmSome();
      sim.Run();
    }

    // The program is big and tie-heavy enough to mean something.
    ASSERT_GE(expected.fired().size(),
              static_cast<size_t>(RandomArmProgram<ReferenceClocks>::kMaxFirings));
    size_t tie_breaks = 0;
    for (size_t i = 1; i < expected.fired().size(); ++i) {
      tie_breaks += expected.fired()[i].first == expected.fired()[i - 1].first ? 1 : 0;
    }
    EXPECT_GT(tie_breaks, expected.fired().size() / 10);
    EXPECT_GT(expected.was_armed().size(), 1000u);

    EXPECT_EQ(actual.was_armed(), expected.was_armed());
    ASSERT_EQ(actual.fired().size(), expected.fired().size());
    for (size_t i = 0; i < expected.fired().size(); ++i) {
      ASSERT_EQ(actual.fired()[i], expected.fired()[i]) << "firing #" << i;
    }
    EXPECT_EQ(sim.processed_count(), expected.fired().size());
    EXPECT_EQ(sim.pending_count(), 0u);
  }
}

}  // namespace
}  // namespace longstore
