// Out-of-band telemetry: a process-wide registry of counters and fixed-
// bucket log-scale histograms recording how the pipeline *executed* — trials
// per cell, fleet retries by reason, service request latencies — never what
// it *computed*.
//
// The hard contract (CI-gated by the telemetry-identity job): every result
// byte is identical with telemetry enabled or disabled.
// Metrics live only here and in the snapshot/journal sinks; they never enter
// a TrialAccumulator, a shard document, a checksummed envelope, or a cache
// key. Timestamps in particular exist only in telemetry output.
//
// Overhead contract:
//   * registration (Registry::counter / histogram) takes a mutex and may
//     allocate — call it once and keep the reference (function-local static
//     at the record site is the idiom);
//   * recording (Counter::Add, Histogram::Record) is lock-free relaxed
//     atomics on fixed storage — no allocation, ever, so the zero-alloc
//     engine contract survives instrumentation;
//   * record sites sit at cell/round/attempt/request granularity, never
//     inside the per-trial simulation loop;
//   * disabled at runtime (LONGSTORE_TELEMETRY_OFF=1 in the environment),
//     recording is one predictable branch.
//
// Snapshots (Registry::SnapshotJson) are canonical JSON via the shared
// src/util/json emitters: names sorted, zero buckets elided — byte-stable
// given equal counter values, so snapshots can be diffed and hashed like
// every other document in the library. Full metric catalog:
// src/obs/README.md.

#ifndef LONGSTORE_SRC_OBS_METRICS_H_
#define LONGSTORE_SRC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace longstore::obs {

// Whether recording is on: initialized once from the environment
// (LONGSTORE_TELEMETRY_OFF=1 disables), overridable by SetEnabled.
bool Enabled();

// Overrides the environment-derived switch (tests).
void SetEnabled(bool on);

// CLOCK_MONOTONIC as nanoseconds. Telemetry-only by contract: this value
// must never reach a result, an identity hash, or a checksummed envelope.
int64_t MonotonicNanos();

// A monotonically increasing event count. Fixed storage; Add is one relaxed
// fetch_add.
class Counter {
 public:
  void Add(int64_t n = 1) {
    if (!Enabled()) {
      return;
    }
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A log-scale distribution over non-negative int64 samples (latencies in
// nanoseconds, sizes in bytes, counts): 64 power-of-two buckets, where
// bucket 0 holds exactly the value 0 (negative samples clamp there) and
// bucket i >= 1 holds [2^(i-1), 2^i). bit_width puts the whole positive
// int64 range in buckets 1..63, so the top bucket doubles as the overflow
// bucket by construction — there is no separate one to forget. Fixed
// storage; Record never allocates.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  static int BucketIndex(int64_t value) {
    if (value <= 0) {
      return 0;
    }
    return std::bit_width(static_cast<uint64_t>(value));
  }
  // Inclusive lower bound of bucket `index`.
  static int64_t BucketLow(int index) {
    return index == 0 ? 0 : int64_t{1} << (index - 1);
  }
  // Exclusive upper bound; INT64_MAX for the top bucket.
  static int64_t BucketHigh(int index) {
    if (index == 0) {
      return 1;
    }
    if (index >= kBuckets - 1) {
      return INT64_MAX;
    }
    return int64_t{1} << index;
  }

  void Record(int64_t value) {
    if (!Enabled()) {
      return;
    }
    const int64_t v = value < 0 ? 0 : value;
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    int64_t seen = min_.load(std::memory_order_relaxed);
    while (v < seen &&
           !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  // 0 when empty.
  int64_t min() const {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  int64_t max() const {
    return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
  }
  int64_t bucket(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

// The frozen value of one histogram inside a MetricsSnapshot. Plain data
// (no atomics), mirroring Histogram's accessors: min/max are 0 when empty.
struct HistogramState {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  int64_t buckets[Histogram::kBuckets] = {};
};

// A frozen, mergeable copy of a registry's values — the cross-process
// aggregation vehicle. A driver parses each worker process's snapshot file
// (Registry::SnapshotJson bytes shipped back over the shard protocol's file
// convention), MergeFrom-sums them into its own snapshot, and emits one
// document covering the whole distributed run.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, HistogramState> histograms;

  bool empty() const { return counters.empty() && histograms.empty(); }

  // Parses a SnapshotJson / ToJson document. Strict schema (obs_version 1,
  // no unknown keys); throws std::invalid_argument prefixed with `source`.
  static MetricsSnapshot FromJson(std::string_view text,
                                  const std::string& source = "MetricsSnapshot");

  // Element-wise accumulation: counters and histogram counts/sums/buckets
  // add, min/max combine; names union. Empty histograms still contribute
  // their name so the merged document keeps every worker's shape.
  void MergeFrom(const MetricsSnapshot& other);

  // The canonical snapshot document:
  //   {"obs_version":1,"counters":{...},"histograms":{...}}
  // with names in lexicographic order and only non-empty buckets emitted (as
  // [index,count] pairs) — byte-stable given equal values, and byte-identical
  // to Registry::SnapshotJson for a snapshot taken from a registry.
  std::string ToJson() const;
};

// Name -> metric, with pointer-stable entries: registration locks and may
// allocate, every later Add/Record through the returned reference is
// lock-free. Separate instances exist only for tests; production code uses
// Global().
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& Global();

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Freezes every registered metric's current value.
  MetricsSnapshot Snapshot() const;

  // Snapshot().ToJson(): the canonical MetricsSnapshot document.
  std::string SnapshotJson() const;

 private:
  mutable std::mutex mutex_;  // registration and snapshot only
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace longstore::obs

#endif  // LONGSTORE_SRC_OBS_METRICS_H_
