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
// partial aggregates as raw Welford state — and the unit of work is a trial
// range of a cell:
//
//   * trial t of a cell draws from a stream that is a function of the cell
//     seed and t alone (src/sweep/sweep.h), under every seed mode, so any
//     worker can run any range of any cell;
//   * cell seeds derive from the spec seed plus the cell's label hash
//     (kPerCellDerived), the spec seed alone (kSharedRoot), or the
//     scenario's content hash (kScenarioDerived, kCounterV1) — never from
//     the cell's position, so partitioning cannot move any trial's stream;
//   * workers ship per-block accumulators (a prefix range pre-folded), and
//     the merger folds them in trial order, exactly as the single-process
//     runner folds its blocks, slotting cells by grid index — so shard
//     count and arrival order are invisible in the output.
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
// behavior. Every document additionally travels in a checksummed envelope
// (byte length + FNV-1a over the body, verified on the raw bytes before
// parsing — json::OpenChecksummedDocument), so a transport that corrupts
// silently produces a retryable json::IntegrityError, never a wrong figure.

#ifndef LONGSTORE_SRC_SHARD_SHARD_H_
#define LONGSTORE_SRC_SHARD_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sweep/sweep.h"

namespace longstore {

// Bumped whenever the shard JSON schema changes shape or meaning. A worker
// or merger speaking a different version rejects the document outright:
// silently reinterpreting a foreign schema could change figures without
// failing a single test. Version 2 added the checksum envelope and the
// sweep_id; version 3 added trial-range cells beside whole ones; version 4
// has one shape — every spec cell carries its trial range and every result
// cell is a piece of trials — and retires versions 2 and 3. Every document
// must arrive in the checksummed envelope; an unchecksummed one is rejected.
inline constexpr int kShardProtocolVersion = 4;

// Identity of the *whole* sweep a shard belongs to: FNV-1a over the sweep's
// canonical description (options, axes, and every cell's index, label and
// scenario hash). Stamped into every shard document and echoed by workers,
// it is the merger's proof that results belong together — independent of
// how the driver partitioned (or re-partitioned, after failures) the
// sweep's trials into workers. Trial ranges are not part of it.
uint64_t ComputeSweepId(const std::vector<std::string>& axis_names,
                        const SweepOptions& options,
                        const std::vector<SweepSpec::Cell>& cells);

// Trials [begin, end) of one shard cell; a whole cell is [0, mc.trials).
struct ShardCellRange {
  int64_t begin = 0;
  int64_t end = 0;
};

// One shard: a self-contained slice of a sweep that a worker process can
// execute with no access to the driver's memory. Carries the full options
// (estimand, horizons, bias, seed, adaptive policy) plus the shard's cells —
// label, grid index, axis coordinates, trial range, and the scenario as
// canonical JSON. The lane count is not part of the document: it is the
// size of the pool each worker runs on (the sweep_worker --threads flag),
// which shapes wall clock, never results.
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
  // The trials each cell runs, parallel to `cells` (ToJson throws on a
  // length mismatch).
  std::vector<ShardCellRange> ranges;

  // Canonical JSON: the body (fixed key order, exact doubles, hex seed)
  // wrapped in the checksummed envelope.
  std::string ToJson() const;
  // Strict inverse; rejects unknown/missing/mistyped keys, version
  // mismatches, envelope length/checksum mismatches (json::IntegrityError),
  // duplicate or out-of-range cell indices, coordinate rows that do not
  // match the axis list, and trial ranges that are empty or reach past
  // mc.trials. `source` (e.g. the file name) prefixes every error so
  // drivers can log which shard document failed. Does not run semantic
  // validation (Scenario::Validate etc.) — RunShard does, exactly as
  // SweepRunner::Run would.
  static ShardSpec FromJson(std::string_view json, const std::string& source = "");

 private:
  static ShardSpec FromJsonUntagged(std::string_view json,
                                    const std::string& source);
};

// The one partition rule, shared by ShardPlan and every fleet round: splits
// `round` — header fields, options, axes, and the round's cells with their
// trial ranges — into exactly `shard_count` specs. Cell i goes whole to
// shard i % shard_count, so adjacent (typically similar-cost) grid cells
// land on different shards, unless the round has fewer cells than shards
// and its trials run to data loss (kMttdl). Then each cell's range is cut
// into up to shard_count chunks whose interior seams lie on 256-trial block
// boundaries; one cell's chunks go to distinct shards, rotated by one shard
// per cell for balance. Only kMttdl cells split because a chunk that does
// not start at trial 0 ships one accumulator per block (the prefix rule,
// ShardPiece), about 90 ns of emit and parse per trial on a 4-vCPU VM: a
// trial that runs to data loss costs microseconds there, while a
// mission-bounded trial may see no event at all (the counter-mode
// prefilter decides one in about 70 ns), and splitting such a cell is
// slower than running it whole. A shard may end up empty.
std::vector<ShardSpec> PartitionShardRound(const ShardSpec& round, int shard_count);

// Partitions a sweep into `shard_count` ShardSpecs by PartitionShardRound,
// as one round of every cell's whole range [0, mc.trials). Validates
// options and every cell up front — a plan that builds is safe to ship. The
// specs carry the sweep's own options, so the one-shard plan of an adaptive
// sweep is the service's whole-sweep request document; RunShard runs only
// non-adaptive specs.
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

 private:
  std::vector<ShardSpec> shards_;
};

// One result cell: what a worker ran of one cell, trials
// [trial_begin, trial_end), as accumulators in trial order. The prefix
// rule: a piece that starts at trial 0 carries exactly one accumulator, its
// blocks pre-folded; any other piece carries one accumulator per
// index-aligned block of its range (RunCellTrialRanges' partition).
// Pre-folding is exact because a prefix piece is always folded onto an
// empty accumulator, and folding into an empty accumulator copies its
// argument bit for bit (RunningStats::Merge, integer sums); later pieces
// ship their blocks because Welford folds are not bitwise-associative.
struct ShardPiece {
  size_t index = 0;
  std::string label;
  std::vector<SweepCoordinate> coordinates;
  int64_t trial_begin = 0;
  int64_t trial_end = 0;
  std::vector<TrialAccumulator> blocks;
};

// A worker's output: one piece per spec cell, with enough header to let the
// merger prove the results belong together. Finalization (CIs, estimator
// math) happens once, after the merge, from exact deserialized state.
struct ShardResult {
  int shard_index = 0;
  int shard_count = 1;
  size_t total_cells = 0;
  // Echoed verbatim from the shard spec the worker executed.
  uint64_t sweep_id = 0;
  SweepOptions::Estimand estimand = SweepOptions::Estimand::kMttdl;
  double confidence = 0.95;
  std::vector<std::string> axis_names;
  std::vector<ShardPiece> cells;

  std::string ToJson() const;
  // Verifies the envelope (json::IntegrityError on length/checksum
  // mismatch), then parses strictly, rejecting a piece with an empty range
  // or one whose accumulator count breaks the prefix rule; `source` names
  // the document in errors.
  static ShardResult FromJson(std::string_view json, const std::string& source = "");

 private:
  static ShardResult FromJsonUntagged(std::string_view json,
                                      const std::string& source);
};

// Executes one shard on `pool` (nullptr = the process-wide pool) through
// RunCellTrialRanges, the executor SweepRunner::Run's round loop uses, so
// every returned block is bit-identical to the same trials' block in a
// single-process run by construction. Throws std::invalid_argument on
// invalid options or cells (with the messages SweepRunner::Run emits), on
// ranges that do not fit [0, mc.trials), and on adaptive specs: adaptive
// sweeps run round by round under a coordinator (FleetSupervisor::Run), a
// worker only ever runs fixed trial ranges.
ShardResult RunShard(const ShardSpec& shard, WorkerPool* pool = nullptr);

// The only fold of worker output. A merger expects the results of one round
// of a sweep — the specs it is built from — and folds each cell's pieces in
// ascending trial order onto the cell's accumulator before the round,
// checking in one place that they tile the round's [from, to) exactly, with
// every seam inside it on a 256-trial block boundary. The fold is then the
// canonical block fold of a single process, so the merged executions — and
// any figure finalized from them — are bit-identical to SweepRunner::Run's,
// for any partition and any Add order.
class ShardMerger {
 public:
  // Expects, for every cell of `shards`, pieces that tile the span its
  // ranges cover there, [from, to). The entry of `prior` with the cell's
  // grid index is its state before the round — folded accumulator, rounds,
  // half-width history, and `trials`, which must equal `from`; a cell with
  // no prior entry starts empty at trial 0. A merged cell has trials = to
  // and one more round. The header every result must match (sweep_id,
  // total_cells, axes, estimand, confidence) is the first spec's. Throws
  // std::invalid_argument if `shards` is empty or inconsistent with
  // `prior`.
  explicit ShardMerger(const std::vector<ShardSpec>& shards,
                       std::vector<SweepCellExecution> prior = {});

  // Validates the result's header against the expected one (shard_count is
  // provenance only — a supervisor that re-partitions failed shards
  // legitimately produces documents with differing counts), then each piece:
  // a cell of this round, its label, the prefix rule, bounds, seam
  // alignment, and no overlap with trials already received. Every message
  // names the offending shard index and `source` (e.g. the file the result
  // was read from; may be empty); an overlap names both deliverers.
  void Add(ShardResult result, const std::string& source = "");
  // Parses then Adds; convenience for driver loops reading worker files.
  // `source` names the document in both parse and merge errors.
  void AddJson(std::string_view json, const std::string& source = "");

  // True once every cell's round is fully tiled and folded.
  bool complete() const { return received_ == expected_; }
  // Grid indices of this round's cells not yet fully tiled (empty when
  // complete).
  std::vector<size_t> MissingCells() const;

  // Finalizes into the single-process-identical SweepResult; throws
  // std::invalid_argument naming the missing cells if incomplete.
  SweepResult Finish() const;

  // Moves the merged cells' executions out, in grid order — the exact
  // Welford state the next adaptive round, or a later run resumed from a
  // result cache (the `prior` of RunSweepRounds), continues from. Check
  // complete() first when every cell is required; the merger is spent
  // afterwards.
  std::vector<SweepCellExecution> TakeExecutions();

 private:
  struct CellMerge {
    SweepCellExecution execution;  // the fold target
    int64_t from = 0;              // the round's trials [from, to)
    int64_t to = 0;
    // Pieces received so far with their deliverers; blocks are dropped once
    // the cell folds, the ranges stay to name overlaps.
    std::vector<std::pair<ShardPiece, std::string>> pieces;
    int64_t covered = 0;
    bool merged = false;
  };

  void AddPiece(ShardPiece piece, const std::string& who);

  ShardResult header_;  // header fields only
  std::vector<std::optional<CellMerge>> cells_;  // by grid index
  size_t expected_ = 0;
  size_t received_ = 0;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_SHARD_SHARD_H_
