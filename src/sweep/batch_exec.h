// Deterministic block-structured trial execution on a WorkerPool.
//
// Trials are partitioned into fixed-size blocks aligned to the absolute
// trial index (block b covers trials [b*256, (b+1)*256)), each block is one
// work unit, and each block owns its own accumulator. The caller folds block
// accumulators together *in block order* after execution. Because the block
// partition and the fold order depend only on the trial range — never on the
// thread count, the lane schedule, or which worker ran which block — the
// aggregate is bit-identical for any parallelism, which is the determinism
// contract SweepRunner and its one-cell estimators advertise.
//
// Each lane lazily constructs one TrialRunner per job (simulator + system +
// rng, reused across all of that job's blocks the lane executes), preserving
// the reuse economics of the allocation-free engine: per-trial cost is a
// Reset, not a reconstruction.

#ifndef LONGSTORE_SRC_SWEEP_BATCH_EXEC_H_
#define LONGSTORE_SRC_SWEEP_BATCH_EXEC_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/obs/metrics.h"
#include "src/storage/replicated_system.h"
#include "src/sweep/worker_pool.h"

namespace longstore {

// Fixed block size: 256 trials amortize the scheduling atomics while keeping
// enough blocks for load balancing on bench-sized trial counts. Changing
// this value changes the (deterministic) fold structure and therefore the
// last-ulp aggregate values; treat it as part of the determinism contract.
inline constexpr int64_t kTrialBlockSize = 256;

// One contiguous trial range executed for one job. `blocks` is sized and
// filled by RunTrialBlockSpans; entries are in ascending trial order and
// must be folded in that order by the caller.
template <typename Accumulator>
struct TrialBatchJob {
  const Scenario* scenario = nullptr;  // pre-validated by the caller
  // Importance-sampling change of measure for this job's trials; null runs
  // the unbiased engine path. Must outlive the batch (the sweep runner
  // points it at its options).
  const FaultBias* bias = nullptr;
  int64_t begin_trial = 0;                   // inclusive, absolute index
  int64_t end_trial = 0;                     // exclusive
  std::vector<Accumulator> blocks;
  // Telemetry-only: when non-null, lanes accumulate the wall-clock
  // nanoseconds spent executing this job's blocks (two clock reads per
  // 256-trial block, never per trial). Summed across lanes, so this is busy
  // time, not elapsed time. Never feeds back into results.
  std::atomic<int64_t>* busy_ns = nullptr;
};

static_assert(kTrialBlockSize == kTrialPrefilterMaxBlock,
              "the storage-layer batch prefilter sizes its stack scratch to "
              "the sweep trial block");

// Runs body(runner, job_index, begin_trial, end_trial, block_accumulator)
// once per index-aligned block of every job, executed on `pool` with at most
// `lanes` concurrent lanes. The body owns the whole block span — this is the
// batched (SoA-friendly) entry point: a counter-mode body can prefilter or
// vectorize across the span instead of paying per-trial dispatch. Blocks of
// different jobs are interleaved in one work list with no barrier between
// jobs, so a slow job cannot strand workers that finished a fast one.
template <typename Accumulator, typename SpanBody>
void RunTrialBlockSpans(WorkerPool& pool, int lanes,
                        std::vector<TrialBatchJob<Accumulator>>& jobs,
                        const SpanBody& body) {
  struct Unit {
    size_t job;
    int64_t begin;
    int64_t end;
    size_t slot;
  };
  std::vector<Unit> units;
  for (size_t j = 0; j < jobs.size(); ++j) {
    TrialBatchJob<Accumulator>& job = jobs[j];
    job.blocks.clear();
    int64_t begin = job.begin_trial;
    while (begin < job.end_trial) {
      const int64_t aligned_end = (begin / kTrialBlockSize + 1) * kTrialBlockSize;
      const int64_t end = std::min(job.end_trial, aligned_end);
      units.push_back(Unit{j, begin, end, job.blocks.size()});
      job.blocks.emplace_back();
      begin = end;
    }
  }
  if (units.empty()) {
    return;
  }
  lanes = std::max(1, std::min<int>(lanes, static_cast<int>(units.size())));
  std::atomic<size_t> next{0};
  pool.RunLanes(lanes, [&](int) {
    std::vector<std::unique_ptr<TrialRunner>> runners(jobs.size());
    while (true) {
      const size_t u = next.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) {
        break;
      }
      const Unit& unit = units[u];
      TrialBatchJob<Accumulator>& job = jobs[unit.job];
      std::unique_ptr<TrialRunner>& runner = runners[unit.job];
      if (!runner) {
        runner = job.bias != nullptr
                     ? std::make_unique<TrialRunner>(
                           *job.scenario, ConfigValidation::kPreValidated, *job.bias)
                     : std::make_unique<TrialRunner>(*job.scenario,
                                                     ConfigValidation::kPreValidated);
      }
      Accumulator& acc = job.blocks[unit.slot];
      const int64_t t0 =
          job.busy_ns != nullptr ? obs::MonotonicNanos() : 0;
      body(*runner, unit.job, unit.begin, unit.end, acc);
      if (job.busy_ns != nullptr) {
        job.busy_ns->fetch_add(obs::MonotonicNanos() - t0,
                               std::memory_order_relaxed);
      }
    }
  });
}

}  // namespace longstore

#endif  // LONGSTORE_SRC_SWEEP_BATCH_EXEC_H_
