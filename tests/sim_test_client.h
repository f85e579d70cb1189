// Test-only SimClient adapter: maps event tags back to std::functions so
// engine tests can express per-event behavior inline. Production clients
// (ReplicatedStorageSystem) switch on tags directly; this indirection exists
// only to keep tests readable.

#ifndef LONGSTORE_TESTS_SIM_TEST_CLIENT_H_
#define LONGSTORE_TESTS_SIM_TEST_CLIENT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/simulator.h"

namespace longstore {

class CallbackClient : public SimClient {
 public:
  // Registers a handler, called with the fired clock's index, and returns
  // the tag to arm it under.
  uint16_t Add(std::function<void(int)> fn) {
    handlers_.push_back(std::move(fn));
    return static_cast<uint16_t>(handlers_.size() - 1);
  }
  uint16_t Add(std::function<void()> fn) {
    return Add([fn = std::move(fn)](int) { fn(); });
  }

  void OnSimEvent(uint16_t tag, int clock) override { handlers_.at(tag)(clock); }

 private:
  std::vector<std::function<void(int)>> handlers_;
};

}  // namespace longstore

#endif  // LONGSTORE_TESTS_SIM_TEST_CLIENT_H_
