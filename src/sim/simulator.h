// Discrete-event simulation engine.
//
// A single-threaded event loop over simulated time. Parallelism in the Monte
// Carlo harness comes from running many independent Simulator instances, one
// per worker thread, never from sharing one engine across threads.
//
// The engine is a fixed table of clocks, sized once when its client attaches.
// A clock holds at most one pending event: arming it replaces whatever it
// held, disarming clears it, and Step fires the armed clock with the least
// (time, arming sequence) — found by a linear scan, because a trial runs a
// handful of clocks. No event record, handle or callback is ever allocated.
// See src/sim/README.md for the one-event-per-clock invariant the storage
// model keeps and the Reset() contract.

#ifndef LONGSTORE_SRC_SIM_SIMULATOR_H_
#define LONGSTORE_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/units.h"

namespace longstore {

// Receiver of fired clocks. The simulator stores no callbacks: a clock is
// armed with a client-defined tag, and firing dispatches the tag and the
// clock's index here. Implementations switch on the tag (the storage layer's
// dispatch lives in ReplicatedStorageSystem::OnSimEvent).
class SimClient {
 public:
  virtual void OnSimEvent(uint16_t tag, int clock) = 0;

 protected:
  ~SimClient() = default;  // not deleted through this interface
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(SimClient* client, int clock_count) { Attach(client, clock_count); }

  // Not copyable or movable: clients capture `this`.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Attaches `client` (non-null) and sizes the clock table to `clock_count`
  // disarmed clocks, numbered from 0. Call once, before the first Arm; a
  // ReplicatedStorageSystem attaches itself on construction.
  void Attach(SimClient* client, int clock_count);
  SimClient* client() const { return client_; }
  int clock_count() const { return static_cast<int>(clocks_.size()); }

  Duration now() const { return now_; }

  // Arms `clock` to fire at absolute simulated time `t` (>= now, and finite;
  // "never" is a disarmed clock), replacing any event it held. Each arming
  // takes the next sequence number, and clocks due at equal times fire in
  // arming order, which keeps fault histories reproducible. `tag` is
  // delivered verbatim to the client's OnSimEvent.
  void ArmAt(int clock, Duration t, uint16_t tag);
  void ArmAfter(int clock, Duration delay, uint16_t tag) {
    ArmAt(clock, now_ + delay, tag);
  }

  // Clears `clock`'s pending event, if any.
  void Disarm(int clock) { clocks_[static_cast<size_t>(clock)] = Clock{}; }
  bool armed(int clock) const {
    return clocks_[static_cast<size_t>(clock)].seq != kDisarmedSeq;
  }

  // Fires the armed clock with the least (time, sequence) if its time is <=
  // `horizon`; the clock is disarmed before its client runs. Returns false
  // when no armed clock is due by then (the time is left untouched).
  bool Step(Duration horizon = Duration::Infinite());

  // Runs until no clock is armed or Stop() is called.
  void Run();

  // Fires every clock due at or before `horizon`, then advances the time to
  // exactly `horizon` (unless stopped earlier).
  void RunUntil(Duration horizon);

  // Requests the current Run()/RunUntil() to return after the in-flight
  // event completes. Typically called from inside a client handler (e.g. on
  // data loss).
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // Returns the engine to its just-attached state: time zero, every clock
  // disarmed, sequence numbers restarted. The client and the table's size
  // are kept, so a reused simulator never touches the allocator.
  void Reset();

  // Armed clocks; O(clocks).
  size_t pending_count() const;
  uint64_t processed_count() const { return processed_; }

 private:
  static constexpr uint64_t kDisarmedSeq = std::numeric_limits<uint64_t>::max();

  // A disarmed clock sorts after every armed one: armed times are finite,
  // and no arming reaches the maximal sequence number.
  struct Clock {
    double time_hours = std::numeric_limits<double>::infinity();
    uint64_t seq = kDisarmedSeq;
    uint16_t tag = 0;
  };

  [[noreturn]] void ThrowBadArm(int clock, Duration t) const;

  Duration now_ = Duration::Zero();
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;
  bool stopped_ = false;
  SimClient* client_ = nullptr;
  std::vector<Clock> clocks_;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_SIM_SIMULATOR_H_
