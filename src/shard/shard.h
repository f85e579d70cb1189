// Sharded sweep fan-out: partition a SweepSpec into self-contained shard
// documents, execute each shard in a separate process (tools/sweep_worker),
// and merge the worker outputs back into a SweepResult that is byte-for-byte
// identical to the single-process run.
//
// Long-term archives are exactly the regime where "re-run it and hope" is
// not verification: a millennia-scale figure must be *provably* the same
// number no matter how many machines computed it. The protocol therefore
// trades no precision anywhere — scenarios travel as their canonical JSON
// (identity-preserving by construction), seeds as exact hex strings, and
// partial aggregates as raw Welford state — and the merge is cell-granular:
//
//   * a shard owns whole cells (every trial of a cell runs in exactly one
//     worker), so each cell's block fold happens in trial order inside one
//     process, exactly as the single-process runner folds it;
//   * cell seeds derive from the spec seed plus the cell's label hash
//     (kPerCellDerived), the spec seed alone (kSharedRoot), or the
//     scenario's content hash (kScenarioDerived) — never from the cell's
//     position, so partitioning cannot move any cell's trial streams;
//   * the merger places finished cells by their grid index, so shard count
//     and arrival order are invisible in the output.
//
// Together: ShardMerger(RunShard(plan)) == SweepRunner::Run(spec) bit for
// bit, for any shard count and any merge order (tests/shard_*_test.cc pin
// this; CI diffs a 3-process run of a golden figure against the
// single-process output).
//
// Wire format and versioning rules: src/shard/README.md. Everything ingested
// from another process is parsed strictly (src/util/json.h): malformed,
// truncated, duplicate-cell, missing-cell and version-mismatched documents
// are rejected with a precise std::invalid_argument, never undefined
// behavior. Since protocol version 2, every document additionally travels in
// a checksummed envelope (byte length + FNV-1a over the body, verified on
// the raw bytes before parsing — json::OpenChecksummedDocument), so a
// transport that corrupts silently produces a retryable
// json::IntegrityError, never a wrong figure.

#ifndef LONGSTORE_SRC_SHARD_SHARD_H_
#define LONGSTORE_SRC_SHARD_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sweep/sweep.h"

namespace longstore {

// Bumped whenever the shard JSON schema changes shape or meaning. A worker
// or merger speaking a different version rejects the document outright:
// silently reinterpreting a foreign schema could change figures without
// failing a single test. Version 2 added the checksum envelope and the
// sweep_id; version 3 added optional trial-range cells (specs) and cell
// fragments (results) for kCounterV1 sweeps. Version-2 documents are a
// strict subset of version 3 and stay accepted. Every document must arrive
// in the checksummed envelope; an unchecksummed one is rejected.
inline constexpr int kShardProtocolVersion = 3;
inline constexpr int kShardCompatVersion = 2;

// Identity of the *whole* sweep a shard belongs to: FNV-1a over the sweep's
// canonical description (options, axes, and every cell's index, label and
// scenario hash). Stamped into every version-2 shard document and echoed by
// workers, it is the merger's proof that results belong together — stronger
// than the old equal-shard-count rule, and independent of how the driver
// partitioned (or re-partitioned, after failures) the cells into workers.
uint64_t ComputeSweepId(const std::vector<std::string>& axis_names,
                        const SweepOptions& options,
                        const std::vector<SweepSpec::Cell>& cells);

// Trial ownership of one shard cell: trials [begin, end) of the cell. The
// sentinel end = -1 means the shard owns every trial (a whole cell, the
// pre-version-3 behavior). Partial ranges require SeedMode::kCounterV1
// (counter streams make trial t's draws independent of trials 0..t-1) and a
// non-adaptive spec; RunShard enforces both.
struct ShardCellRange {
  int64_t begin = 0;
  int64_t end = -1;
};

// One shard: a self-contained slice of a sweep that a worker process can
// execute with no access to the driver's memory. Carries the full options
// (estimand, horizons, bias, seed, adaptive policy) plus the shard's cells —
// label, grid index, axis coordinates, and the scenario as canonical JSON.
// mc.threads is deliberately NOT part of the document: it only shapes each
// worker's wall clock (never results), so it stays a per-process concern
// (the sweep_worker --threads flag).
struct ShardSpec {
  int shard_index = 0;
  int shard_count = 1;
  // Cell count of the *full* sweep; the merger uses it to prove
  // completeness before finalizing.
  size_t total_cells = 0;
  // ComputeSweepId of the full sweep.
  uint64_t sweep_id = 0;
  std::vector<std::string> axis_names;
  SweepOptions options;
  std::vector<SweepSpec::Cell> cells;
  // Per-cell trial ranges, parallel to `cells`. Empty (the common case, and
  // every pre-version-3 document) means each cell is owned whole.
  std::vector<ShardCellRange> ranges;

  // Canonical JSON: the body (fixed key order, exact doubles, hex seed)
  // wrapped in the checksummed envelope.
  std::string ToJson() const;
  // Strict inverse; rejects unknown/missing/mistyped keys, version
  // mismatches, envelope length/checksum mismatches (json::IntegrityError),
  // duplicate or out-of-range cell indices, and coordinate rows that do not
  // match the axis list. `source` (e.g. the file name) prefixes every error
  // so drivers can log which shard document failed. Does not run semantic
  // validation (Scenario::Validate etc.) — RunShard does, exactly as
  // SweepRunner::Run would.
  static ShardSpec FromJson(std::string_view json, const std::string& source = "");

 private:
  static ShardSpec FromJsonUntagged(std::string_view json,
                                    const std::string& source);
};

// Partitions a sweep into `shard_count` ShardSpecs, round-robin by cell
// index so adjacent (typically similar-cost) grid cells land on different
// shards. Validates options and every cell up front — a plan that builds is
// safe to ship. A shard may end up empty when shard_count exceeds the cell
// count; its worker returns an empty (but well-formed) result.
class ShardPlan {
 public:
  ShardPlan(const SweepSpec& spec, const SweepOptions& options, int shard_count);
  // Plans already-materialized cells (a deserialized shard/service document,
  // where no SweepSpec exists to rebuild them from). Cells keep their grid
  // indices and coordinates, so the plan is identical to one built from the
  // originating spec.
  ShardPlan(std::vector<std::string> axis_names, const SweepOptions& options,
            std::vector<SweepSpec::Cell> cells, int shard_count);

  const std::vector<ShardSpec>& shards() const { return shards_; }
  size_t total_cells() const { return total_cells_; }
  const std::vector<std::string>& axis_names() const { return axis_names_; }

 private:
  std::vector<ShardSpec> shards_;
  std::vector<std::string> axis_names_;
  size_t total_cells_ = 0;
};

// A trial-range fragment of one cell (version 3, kCounterV1 only): trials
// [trial_begin, trial_end) of a cell whose full run is `cell_trials` trials.
// Instead of one folded accumulator it carries the per-block accumulators of
// the canonical index-aligned partition (src/sweep/batch_exec.h), so the
// merger can fold a complete tiling of [0, cell_trials) in trial order and
// obtain *exactly* the single-process accumulator — Welford folds are not
// bitwise-associative, so shipping the blocks (not a pre-fold) is what makes
// the reassembly byte-identical.
struct ShardCellFragment {
  size_t index = 0;
  std::string label;
  std::vector<SweepCoordinate> coordinates;
  int64_t trial_begin = 0;
  int64_t trial_end = 0;
  int64_t cell_trials = 0;  // full-cell trial count the tiling must cover
  std::vector<TrialAccumulator> blocks;  // aligned partition, trial order
};

// A worker's output: the raw per-cell executions (folded trial
// accumulators plus bookkeeping), with enough header to let the merger
// prove the results belong together. Finalization (CIs, estimator math)
// happens once, in the merger, from exact deserialized state.
struct ShardResult {
  int shard_index = 0;
  int shard_count = 1;
  size_t total_cells = 0;
  // Echoed verbatim from the shard spec the worker executed.
  uint64_t sweep_id = 0;
  SweepOptions::Estimand estimand = SweepOptions::Estimand::kMttdl;
  double confidence = 0.95;
  std::vector<std::string> axis_names;
  std::vector<SweepCellExecution> cells;
  // Trial-range fragments of cells this shard ran partially (version 3);
  // empty on whole-cell shards and on every pre-version-3 document.
  std::vector<ShardCellFragment> fragments;

  std::string ToJson() const;
  // Verifies the envelope (json::IntegrityError on length/checksum
  // mismatch), then parses strictly; `source` names the document in errors.
  static ShardResult FromJson(std::string_view json, const std::string& source = "");

 private:
  static ShardResult FromJsonUntagged(std::string_view json,
                                      const std::string& source);
};

// Executes one shard on `pool` (nullptr = the process-wide pool) through the
// same RunSweepCells path SweepRunner::Run uses, so the returned
// accumulators are bit-identical to the same cells' accumulators in a
// single-process run by construction. Throws std::invalid_argument on
// invalid options or cells, with the same messages SweepRunner::Run emits.
ShardResult RunShard(const ShardSpec& shard, WorkerPool* pool = nullptr);

// Folds worker outputs back into a SweepResult. Order-invariant and
// partition-invariant: each cell arrives exactly once (whole, with its
// trial-order fold already done), is slotted by grid index, and finalized
// identically to the single-process path — so any grouping of cells into
// shards and any Add order produce the same bytes. Inconsistent headers,
// duplicate cells, and premature Finish are errors.
class ShardMerger {
 public:
  // Validates against the first-added result's header: estimand,
  // confidence, axes, total_cells, and sweep identity. Results must agree
  // on sweep_id (shard_count is provenance only — a supervisor that
  // re-partitions failed shards legitimately produces documents with
  // differing counts). Throws
  // std::invalid_argument on any mismatch or duplicated cell index, naming
  // the offending shard index and source file in every message. `source`
  // (e.g. the file the result was read from) may be empty.
  // Fragments (trial-range results) are accepted alongside whole cells: a
  // cell assembles the moment its fragments tile [0, cell_trials)
  // contiguously from zero with block-aligned interior boundaries, folding
  // the shipped blocks in trial order — so the assembled accumulator is
  // bit-identical to the whole-cell run. Overlapping or inconsistent
  // fragments, and a fragment for a cell that already arrived whole (or
  // vice versa), are errors.
  void Add(ShardResult result, const std::string& source = "");
  // Parses then Adds; convenience for driver loops reading worker files.
  // `source` names the document in both parse and merge errors.
  void AddJson(std::string_view json, const std::string& source = "");

  size_t cells_received() const { return received_; }
  bool complete() const;
  // Grid indices not yet covered by any added shard (empty when complete,
  // or before the first Add).
  std::vector<size_t> MissingCells() const;

  // Finalizes into the single-process-identical SweepResult; throws
  // std::invalid_argument naming the missing cells if incomplete, or if
  // nothing was added.
  SweepResult Finish() const;

  // Finalizes whatever arrived — for drivers running with explicit
  // partial-results consent (--partial-ok) after retries are exhausted.
  // Cells keep their true grid indices, so the gaps (MissingCells()) stay
  // visible; throws std::invalid_argument if nothing was added. Each
  // present cell finalizes to exactly the bytes it would have in the
  // complete merge.
  SweepResult FinishPartial() const;

  // Moves the merged raw executions out, in grid order — the exact Welford
  // state a result cache needs to seed adaptive continuation
  // (ResumeSweepCells) later. Only valid on a complete merge
  // (std::invalid_argument otherwise); the merger is spent afterwards.
  std::vector<SweepCellExecution> TakeExecutions();

 private:
  // Validates one incoming fragment, stores it, and assembles the cell once
  // its tiling is complete.
  void AddFragment(ShardCellFragment fragment, const std::string& who);

  bool have_header_ = false;
  ShardResult header_;    // cells unused; header fields of the first Add
  std::string first_source_;
  std::vector<std::optional<SweepCellExecution>> cells_;
  // Fragments awaiting a complete tiling, per grid index.
  std::vector<std::vector<ShardCellFragment>> pending_fragments_;
  // Which shard delivered each received cell ("shard 3 (k3.result.json)"),
  // so duplicate-cell errors can name both deliverers.
  std::vector<std::string> cell_sources_;
  size_t received_ = 0;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_SHARD_SHARD_H_
