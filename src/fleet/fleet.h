// Fault-tolerant execution of sharded sweeps: a supervisor that plans a
// sweep into shard documents (src/shard/), runs a fleet of sweep_worker
// subprocesses, and drives every shard to a verified result *despite*
// workers that crash, hang, exit dirty, or return corrupted bytes — the
// paper's fault/detect/repair discipline (Baker et al., EuroSys 2006,
// strategies 2 and 4) applied to the compute fleet itself.
//
// Supervision model (src/fleet/README.md has the full state machine):
//
//   * every unit (initially one planned shard) runs as its own subprocess;
//     at most max_parallel run at once;
//   * a unit fails when its process dies dirty, exceeds the wall-clock
//     timeout (SIGKILL escalation), writes no output, or writes a document
//     that fails the envelope checksum (json::IntegrityError) or strict
//     parse — every one of these is *detected*, logged with the shard and
//     file named, and retried with exponential backoff plus deterministic
//     jitter, up to max_retries retries per unit;
//   * a multi-cell unit that exhausts its retries is split into single-cell
//     units with fresh budgets, isolating a poison cell so the rest of the
//     shard still completes (the "reassignment" of a dead worker's cells);
//   * the sweep runs in rounds — one for a non-adaptive sweep, the adaptive
//     schedule otherwise — and every round's trial ranges are partitioned
//     by PartitionShardRound and merged through ShardMerger onto the
//     previous round's accumulators, so the final figure is byte-identical
//     to the single-process run whenever every cell eventually succeeds:
//     the contract survives any amount of retrying, re-partitioning, and
//     out-of-order completion, because trial identity (sweep_id, grid
//     index, cell seeds) never depends on which process computed what;
//   * cells that still fail after splitting are *lost*: Run throws a
//     FleetError naming them, or, with partial_ok, returns the finalized
//     survivors plus an explicit lost-cell list — never a silently
//     truncated table.
//
// Determinism: the estimates are bit-identical to SweepRunner::Run by the
// shard contract; the *supervision schedule* (which attempt failed, backoff
// draws) is additionally deterministic given the options' seeds, which is
// what makes the fault-injection matrix (tests/fleet_recovery_test.cc)
// reproducible.

#ifndef LONGSTORE_SRC_FLEET_FLEET_H_
#define LONGSTORE_SRC_FLEET_FLEET_H_

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sweep/sweep.h"

namespace longstore {

struct FleetOptions {
  // Path to the sweep_worker binary (posix_spawn'd directly; no PATH
  // search). Each worker answers on its stdout, which the supervisor reads
  // through a pipe.
  std::string worker_path;
  // Existing writable directory for the shard documents. Required.
  std::string temp_dir;

  // Initial shard count (>= 1). More shards than max_parallel is fine —
  // they queue.
  int shard_count = 1;
  // Workers running at once (>= 1).
  int max_parallel = 2;
  // Retries per unit after its first attempt: a unit gets 1 + max_retries
  // attempts before it is split (multi-cell) or declared lost.
  int max_retries = 3;
  // Wall-clock seconds per attempt before SIGKILL; 0 disables the timeout
  // (then a hung worker hangs the fleet — always set this in production).
  // Negative or NaN is invalid.
  double timeout_seconds = 0.0;

  // Backoff before retry k (k = 1 after the first failure):
  //   min(5 s, backoff_initial * 2^(k-1)) * (0.5 + 0.5*u)
  // with u in [0,1) drawn deterministically from (a fixed seed, unit, k) —
  // jitter without a global RNG, reproducible in tests.
  double backoff_initial_seconds = 0.1;

  // Accept an incomplete sweep: exhausted cells come back explicitly marked
  // (FleetReport::lost, complete=false) instead of FleetError.
  bool partial_ok = false;

  // Each worker's pool size (--threads); 0 = one thread per core. Never
  // changes results, only wall clock.
  int worker_threads = 1;
  // Keep the shard documents in temp_dir after Run (debugging). Results
  // never touch the disk: they arrive over stdout.
  bool keep_files = false;

  // Deterministic fault injection, forwarded to every worker
  // (--fail-mode/--fail-prob/--fail-seed; the supervisor adds
  // --fail-nonce=<attempt> so retries of the same shard draw fresh
  // decisions). Empty fail_mode = no injection. Test/CI chaos only.
  std::string fail_mode;
  double fail_prob = 0.0;
  uint64_t fail_seed = 0;

  // Supervision log (retries, timeouts, splits), e.g. stderr; nullptr =
  // silent. Every line carries the run's sweep_id prefix; the same rendered
  // message rides the structured event into `journal`, so the two sinks can
  // never disagree (single formatting path).
  std::FILE* log = nullptr;
  // Structured trace journal for unit state-machine transitions
  // (ready→running→backoff→done/split/lost); nullptr or an unopened journal
  // records nothing. Telemetry only — never consulted for results. Not
  // owned; must outlive Run.
  obs::TraceJournal* journal = nullptr;
};

struct FleetStats {
  int spawned = 0;    // processes started (attempts)
  int succeeded = 0;  // attempts whose document verified and merged
  int crashed = 0;    // dirty exits (nonzero status or signal)
  int timed_out = 0;  // SIGKILLed past timeout_seconds
  int corrupt = 0;    // envelope checksum/length failures (IntegrityError)
  int malformed = 0;  // other unreadable/unparseable output
  int retries = 0;    // re-spawns after failure
  int splits = 0;     // exhausted multi-cell units split into cells
};

// A cell no attempt could deliver: its grid index, label, and the last
// failure the supervisor saw from a unit that owned it.
struct FleetLostCell {
  size_t index = 0;
  std::string label;
  std::string reason;
};

struct FleetReport {
  SweepResult result;
  // True: every cell merged; `result` is byte-identical to the
  // single-process run. False (partial_ok only): `result` holds the
  // finalized survivors, `lost` the rest.
  bool complete = true;
  std::vector<FleetLostCell> lost;
  FleetStats stats;
  // Complete runs only: the merged raw per-cell executions in cell order —
  // the exact accumulator state a result cache can later seed adaptive
  // continuation from (the `prior` of Run or RunSweepCells). Empty on
  // partial runs.
  std::vector<SweepCellExecution> executions;
  // The merged telemetry of every harvested worker process (each worker
  // writes its own Registry snapshot on stdout after its result document;
  // the supervisor folds them with MetricsSnapshot::MergeFrom). Collection is
  // best-effort: a worker whose snapshot is missing or unreadable still
  // merges its result. Empty when workers run with telemetry off.
  obs::MetricsSnapshot worker_metrics;
};

// Retries exhausted (without partial_ok), no usable results at all, or the
// fleet could not run (bad options, unwritable temp_dir, merge
// inconsistency — which would mean a worker bug, not a transport fault).
class FleetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FleetSupervisor {
 public:
  explicit FleetSupervisor(FleetOptions options);

  // Runs `spec` on the fleet and supervises it to completion, round by
  // round, under every seed mode: SweepRunner::Run's own round loop
  // (RunSweepRounds) with every round run by workers. A non-adaptive sweep
  // is one round; an adaptive one (kMttdl) follows the runner's geometric
  // schedule. Each round's trial ranges are partitioned by
  // PartitionShardRound into options.shard_count shards — whole cells
  // round-robin, kMttdl cells split at 256-trial block boundaries when
  // fewer of them than shards are active — and merged by ShardMerger onto
  // the cells' states before the round. The report —
  // accumulators, trials, rounds, half-width histories, and the finalized
  // figure — is byte-identical to SweepRunner::Run on one process, for any
  // shard_count, retry/split history, and worker completion order. Throws
  // std::invalid_argument for invalid sweep specs/options (same messages
  // as SweepRunner::Run), FleetError for fleet-level failure.
  FleetReport Run(const SweepSpec& spec, const SweepOptions& sweep_options) const;

  // Same supervision over already-materialized cells (a deserialized
  // service/shard document, where no SweepSpec exists). Cells keep their
  // grid indices and coordinates, so the merged result is identical to a
  // run planned from the originating spec. A non-empty `prior` continues an
  // adaptive sweep from an earlier run's executions (FleetReport::executions
  // or RunSweepCells'), exactly as RunSweepRounds does in process: the first
  // round's pieces merge onto the stored accumulators, the report is
  // byte-identical to a cold run at these options, and only the trials
  // beyond `prior` are simulated. RunSweepRounds' prior checks throw
  // std::invalid_argument before any worker is spawned.
  FleetReport Run(std::vector<std::string> axis_names,
                  const SweepOptions& sweep_options,
                  std::vector<SweepSpec::Cell> cells,
                  std::vector<SweepCellExecution> prior = {}) const;

  const FleetOptions& options() const { return options_; }

 private:
  FleetOptions options_;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_FLEET_FLEET_H_
