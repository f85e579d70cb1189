#include "src/sim/simulator.h"

#include <stdexcept>
#include <string>

namespace longstore {

void Simulator::Attach(SimClient* client, int clock_count) {
  if (client == nullptr || clock_count < 0) {
    throw std::invalid_argument("Simulator::Attach: needs a client and a clock count >= 0");
  }
  client_ = client;
  clocks_.assign(static_cast<size_t>(clock_count), Clock{});
}

void Simulator::ThrowBadArm(int clock, Duration t) const {
  if (t < now_) {
    throw std::invalid_argument("ArmAt: cannot arm a clock in the past");
  }
  if (!(t.hours() < std::numeric_limits<double>::infinity())) {  // +inf or NaN
    throw std::invalid_argument("ArmAt: time must be finite");
  }
  if (client_ == nullptr) {
    throw std::logic_error("ArmAt: no SimClient attached");
  }
  throw std::out_of_range("ArmAt: clock " + std::to_string(clock) +
                          " is outside the table of " +
                          std::to_string(clocks_.size()));
}

void Simulator::ArmAt(int clock, Duration t, uint16_t tag) {
  // One test covers every bad arming: a past, infinite or NaN time, and a
  // clock outside the table (which is empty until a client attaches).
  if (!(t >= now_ && t.hours() < std::numeric_limits<double>::infinity()) ||
      static_cast<size_t>(clock) >= clocks_.size()) [[unlikely]] {
    ThrowBadArm(clock, t);
  }
  clocks_[static_cast<size_t>(clock)] = Clock{t.hours(), next_seq_++, tag};
}

bool Simulator::Step(Duration horizon) {
  // Each clock holds at most one event and each arming takes a fresh seq,
  // so the least (time, seq) over armed clocks is the event a priority
  // queue of every pending event would pop next.
  size_t next = clocks_.size();
  double next_time = std::numeric_limits<double>::infinity();
  uint64_t next_seq = kDisarmedSeq;
  for (size_t i = 0; i < clocks_.size(); ++i) {
    const Clock& c = clocks_[i];
    if (c.time_hours < next_time || (c.time_hours == next_time && c.seq < next_seq)) {
      next = i;
      next_time = c.time_hours;
      next_seq = c.seq;
    }
  }
  // `next` stays past the end unless some clock is armed, so an infinite
  // horizon never fires a disarmed clock.
  if (next == clocks_.size() || next_time > horizon.hours()) {
    return false;
  }
  const uint16_t tag = clocks_[next].tag;
  clocks_[next] = Clock{};
  now_ = Duration::Hours(next_time);
  ++processed_;
  client_->OnSimEvent(tag, static_cast<int>(next));
  return true;
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
  for (Clock& c : clocks_) {
    c = Clock{};
  }
  now_ = Duration::Zero();
  next_seq_ = 1;
  processed_ = 0;
  stopped_ = false;
}

size_t Simulator::pending_count() const {
  size_t armed = 0;
  for (const Clock& c : clocks_) {
    armed += c.seq != kDisarmedSeq ? 1 : 0;
  }
  return armed;
}

}  // namespace longstore
