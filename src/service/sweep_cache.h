// The resident sweep service's result memo: finished sweeps keyed by their
// content-derived identity (ComputeSweepId — FNV-1a over the canonical sweep
// description: options, axes, and every cell's index, label and scenario
// CanonicalHash), so two clients describing the same sweep in any order of
// construction hit the same entry.
//
// Two lookup paths, mirroring the two ways a query can be "the same work":
//
//   * exact hit — the request's sweep_id equals a stored entry's: the stored
//     finalized result bytes are returned without simulating anything, and
//     they are byte-identical to a cold run by the determinism contract
//     (they *are* a cold run's bytes);
//   * near hit — an adaptive (kMttdl) request that differs from a stored
//     entry only in relative_precision: entries additionally index under a
//     resume_key (the sweep_id with relative_precision pinned to 0), and a
//     stored run at *looser* precision is the `prior` the backend's run
//     continues from (RunSweepRounds) — the exact Welford accumulator state
//     instead of a restart. A stored *tighter* run is deliberately not
//     served for a looser request: the cold looser run would have stopped
//     at an earlier round, so its bytes differ — and byte-identity outranks
//     the saved trials.
//
// Bounded LRU: both lookups refresh recency; insertion past capacity evicts
// the least recently used entry. Not internally synchronized — the service
// loop is single-threaded (like the fleet supervisor), which keeps every
// cache transition trivially race-free.

#ifndef LONGSTORE_SRC_SERVICE_SWEEP_CACHE_H_
#define LONGSTORE_SRC_SERVICE_SWEEP_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sweep/sweep.h"

namespace longstore {

struct SweepCacheStats {
  int64_t exact_hits = 0;
  int64_t resume_hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
};

// One finished sweep: its identity, the finalized response bytes (served on
// exact hits), and the raw executions (the resume seed for near hits).
struct CachedSweep {
  uint64_t sweep_id = 0;    // exact key: ComputeSweepId of the request
  uint64_t resume_key = 0;  // sweep_id with relative_precision pinned; 0 when
                            // the entry is not resumable (non-adaptive)
  double relative_precision = 0.0;  // the stored *request's* precision
  int64_t total_trials = 0;         // across all cells; resume-savings metric
  std::string result_json;          // SweepResult::ToJson of the cold run
  std::vector<SweepCellExecution> executions;  // raw Welford state, grid order
};

// The outcome of one SweepCache::Lookup: exactly one of the three
// categories, with the entry when there is one.
struct SweepCacheLookup {
  enum class Kind { kExactHit, kResumeHit, kMiss };
  Kind kind = Kind::kMiss;
  // Non-null for kExactHit/kResumeHit; valid until the next Insert.
  const CachedSweep* entry = nullptr;
};

class SweepCache {
 public:
  // capacity = maximum entries held; at least 1.
  explicit SweepCache(size_t capacity);

  // The single counted lookup path: tries an exact hit on `sweep_id`, then
  // (when resume_key != 0) a near hit — the best stored entry sharing
  // `resume_key` whose precision is strictly looser than (greater than)
  // `requested_precision`; among those, the one with the most trials, i.e.
  // the latest point on the shared adaptive round trajectory, so the fewest
  // new trials remain. (A tighter stored run is never served: the cold
  // looser run stops at an earlier round, so its bytes differ, and
  // byte-identity outranks saved trials.)
  //
  // Every call counts exactly one of exact_hits / resume_hits / misses —
  // accounting lives entirely inside the cache, so callers cannot skew the
  // hit ratio by forgetting (or double-counting) an outcome. A hit
  // refreshes recency.
  SweepCacheLookup Lookup(uint64_t sweep_id, uint64_t resume_key,
                          double requested_precision);

  // Records a finished sweep; replaces any entry with the same sweep_id and
  // evicts the least recently used entry past capacity.
  void Insert(CachedSweep entry);

  size_t size() const { return entries_.size(); }
  const SweepCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    CachedSweep sweep;
    std::list<uint64_t>::iterator recency;  // position in recency_
  };

  // Uncounted probes behind Lookup.
  const CachedSweep* FindExact(uint64_t sweep_id);
  const CachedSweep* FindResumable(uint64_t resume_key,
                                   double requested_precision);

  void Touch(Entry& entry);
  void Erase(uint64_t sweep_id);

  size_t capacity_;
  // Most recent at the front; values are sweep_ids.
  std::list<uint64_t> recency_;
  std::unordered_map<uint64_t, Entry> entries_;
  // resume_key -> sweep_ids of the entries carrying it (small sets: one per
  // distinct precision the key has been computed at).
  std::unordered_map<uint64_t, std::vector<uint64_t>> resume_index_;
  SweepCacheStats stats_;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_SERVICE_SWEEP_CACHE_H_
