// Discrete-event simulation engine.
//
// A single-threaded event loop over simulated time. Parallelism in the Monte
// Carlo harness comes from running many independent Simulator instances, one
// per worker thread, never from sharing one engine across threads.
//
// The engine is allocation-free in steady state: events are plain records
// stored inline in one 4-ary min-heap ordered by (time, seq) — no
// std::function, no per-event node. A Monte Carlo trial keeps only a handful
// of events pending, so the heap stays a few levels deep. Cancellation is
// lazy via generation-stamped slot handles. See src/sim/README.md for the
// design and the Reset()/handle-invalidation contract.

#ifndef LONGSTORE_SRC_SIM_SIMULATOR_H_
#define LONGSTORE_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/util/units.h"

namespace longstore {

// Opaque handle for a scheduled event; valid until the event fires, is
// cancelled, or the simulator is Reset() (which invalidates all handles).
class EventId {
 public:
  constexpr EventId() : value_(0) {}
  explicit constexpr EventId(uint64_t value) : value_(value) {}

  constexpr uint64_t value() const { return value_; }
  constexpr bool is_valid() const { return value_ != 0; }
  constexpr bool operator==(const EventId&) const = default;

 private:
  uint64_t value_;
};

// Receiver of fired events. The simulator stores no callbacks: every event
// carries a client-defined tag plus two integer payload words, and firing
// dispatches them here. Implementations switch on the tag (the storage layer's
// dispatch lives in ReplicatedStorageSystem::OnSimEvent).
class SimClient {
 public:
  virtual void OnSimEvent(uint16_t tag, int32_t a, int32_t b) = 0;

 protected:
  ~SimClient() = default;  // not deleted through this interface
};

class Simulator {
 public:
  explicit Simulator(SimClient* client = nullptr) : client_(client) {}

  // Not copyable or movable: clients capture `this`.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // The client receives every fired event. Must be set before the first
  // Schedule call; a ReplicatedStorageSystem attaches itself on construction.
  void set_client(SimClient* client) { client_ = client; }
  SimClient* client() const { return client_; }

  Duration now() const { return now_; }

  // Schedules an event at absolute simulated time `t` (>= now, and finite;
  // scheduling "never" is expressed by simply not scheduling). Events at equal
  // times fire in scheduling order (stable FIFO tie-break), which keeps fault
  // histories reproducible. `tag`, `a`, `b` are delivered verbatim to the
  // client's OnSimEvent.
  EventId ScheduleAt(Duration t, uint16_t tag, int32_t a = 0, int32_t b = 0);
  EventId ScheduleAfter(Duration delay, uint16_t tag, int32_t a = 0,
                        int32_t b = 0);

  // Cancels a pending event. Returns false if it already fired, was already
  // cancelled, or the handle is invalid. O(1): the heap entry goes stale and
  // is discarded when it reaches the top.
  bool Cancel(EventId id);

  // Fires the next pending event whose time is <= `horizon`. Returns false
  // when no such event remains (the clock is left untouched in that case).
  bool Step(Duration horizon = Duration::Infinite());

  // Runs until the queue is empty or Stop() is called.
  void Run();

  // Processes all events with time <= horizon, then advances the clock to
  // exactly `horizon` (unless stopped earlier).
  void RunUntil(Duration horizon);

  // Requests the current Run()/RunUntil() to return after the in-flight
  // event completes. Typically called from inside a client handler (e.g. on
  // data loss).
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // Returns the engine to its just-constructed state (time zero, empty queue)
  // while keeping every internal buffer's capacity, so a reused simulator
  // schedules and fires events without touching the heap allocator. All
  // outstanding EventIds are invalidated; callers must drop cached handles.
  // The attached client is kept.
  void Reset();

  size_t pending_count() const { return live_count_; }
  uint64_t processed_count() const { return processed_; }

 private:
  // One scheduled event, stored inline in the heap: 24 bytes, so a sift
  // touches few cache lines. The tag/payload live in the slot table; the
  // `slot`/`generation` pair ties the record to its handle, and a record
  // whose generation no longer matches its slot has been cancelled (or
  // already fired) and is skipped on pop.
  struct EventRecord {
    double time_hours;
    uint64_t seq;  // FIFO tie-break for equal times
    uint32_t slot;
    uint32_t generation;

    bool FiresBefore(const EventRecord& other) const {
      if (time_hours != other.time_hours) {
        return time_hours < other.time_hours;
      }
      return seq < other.seq;
    }
  };
  static constexpr uint32_t kFreeListEnd = ~uint32_t{0};

  struct Slot {
    uint32_t generation = 0;
    bool live = false;
    uint16_t tag = 0;
    int32_t a = 0;
    int32_t b = 0;
    // Intrusive free list: index of the next free slot (kFreeListEnd
    // terminates). Valid only while the slot is not live.
    uint32_t next_free = kFreeListEnd;
  };

  void ReleaseSlot(uint32_t slot);
  // The queue is a 4-ary implicit min-heap on (time, seq): half the depth of
  // a binary heap, and the four children of a node sit on adjacent cache
  // lines. Hole-based sifts move each record once instead of swapping.
  void HeapPush(const EventRecord& record);
  void HeapPopTop();

  Duration now_ = Duration::Zero();
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;
  size_t live_count_ = 0;
  bool stopped_ = false;
  SimClient* client_;

  // Pending records, cancelled ones included until they reach the top.
  std::vector<EventRecord> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kFreeListEnd;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_SIM_SIMULATOR_H_
