#include "src/sim/simulator.h"

#include <limits>
#include <stdexcept>

namespace longstore {

void Simulator::HeapPush(const EventRecord& record) {
  heap_.push_back(record);
  size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (!record.FiresBefore(heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = record;
}

void Simulator::HeapPopTop() {
  const EventRecord moved = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) {
    return;
  }
  const size_t size = heap_.size();
  size_t hole = 0;
  for (;;) {
    const size_t first_child = hole * 4 + 1;
    if (first_child >= size) {
      break;
    }
    size_t best = first_child;
    const size_t last_child = first_child + 4 <= size ? first_child + 4 : size;
    for (size_t child = first_child + 1; child < last_child; ++child) {
      if (heap_[child].FiresBefore(heap_[best])) {
        best = child;
      }
    }
    if (!heap_[best].FiresBefore(moved)) {
      break;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = moved;
}

EventId Simulator::ScheduleAt(Duration t, uint16_t tag, int32_t a, int32_t b) {
  if (t < now_) {
    throw std::invalid_argument("ScheduleAt: cannot schedule in the past");
  }
  if (!(t.hours() < std::numeric_limits<double>::infinity())) {  // +inf or NaN
    throw std::invalid_argument("ScheduleAt: time must be finite");
  }
  if (client_ == nullptr) {
    throw std::logic_error("ScheduleAt: no SimClient attached");
  }
  uint32_t slot;
  if (free_head_ != kFreeListEnd) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{});
  }
  Slot& s = slots_[slot];
  s.live = true;
  s.tag = tag;
  s.a = a;
  s.b = b;
  HeapPush(EventRecord{t.hours(), next_seq_++, slot, s.generation});
  ++live_count_;
  return EventId((static_cast<uint64_t>(s.generation) << 32) |
                 (static_cast<uint64_t>(slot) + 1));
}

EventId Simulator::ScheduleAfter(Duration delay, uint16_t tag, int32_t a,
                                 int32_t b) {
  return ScheduleAt(now_ + delay, tag, a, b);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  ++s.generation;  // invalidates the handle and any stale queued record
  s.next_free = free_head_;
  free_head_ = slot;
  --live_count_;
}

bool Simulator::Cancel(EventId id) {
  if (!id.is_valid()) {
    return false;
  }
  const uint32_t slot_plus_one = static_cast<uint32_t>(id.value());
  if (slot_plus_one == 0 || static_cast<size_t>(slot_plus_one) > slots_.size()) {
    return false;
  }
  const uint32_t slot = slot_plus_one - 1;
  const uint32_t generation = static_cast<uint32_t>(id.value() >> 32);
  const Slot& s = slots_[slot];
  if (!s.live || s.generation != generation) {
    return false;  // already fired, already cancelled, or a stale handle
  }
  ReleaseSlot(slot);
  return true;
}

bool Simulator::Step(Duration horizon) {
  while (!heap_.empty()) {
    const EventRecord record = heap_.front();
    const Slot& s = slots_[record.slot];
    if (!s.live || s.generation != record.generation) {
      HeapPopTop();  // cancelled since it was pushed: discard
      continue;
    }
    if (record.time_hours > horizon.hours()) {
      return false;
    }
    HeapPopTop();
    const uint16_t tag = s.tag;
    const int32_t a = s.a;
    const int32_t b = s.b;
    ReleaseSlot(record.slot);
    now_ = Duration::Hours(record.time_hours);
    ++processed_;
    client_->OnSimEvent(tag, a, b);
    return true;
  }
  return false;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

void Simulator::RunUntil(Duration horizon) {
  stopped_ = false;
  while (!stopped_ && Step(horizon)) {
  }
  if (!stopped_ && now_ < horizon) {
    now_ = horizon;
  }
}

void Simulator::Reset() {
  // Release every still-pending record's slot instead of clearing the slot
  // table: a cleared table would restart generations at zero and let a
  // handle from before the Reset collide with a new event in the same slot.
  // O(pending), which is zero after a fully drained run; the table and free
  // list (and every buffer's capacity) survive intact.
  for (const EventRecord& record : heap_) {
    const Slot& s = slots_[record.slot];
    if (s.live && s.generation == record.generation) {
      ReleaseSlot(record.slot);  // bumps the generation: stale handles die
    }
  }
  heap_.clear();
  now_ = Duration::Zero();
  next_seq_ = 1;
  processed_ = 0;
  live_count_ = 0;
  stopped_ = false;
}

}  // namespace longstore
