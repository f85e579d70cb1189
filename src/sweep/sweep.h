// Batch sweep engine: declarative grids of Scenario variants executed as
// one batch of trial blocks on a shared worker pool.
//
// Every figure in the source paper is a *sweep* — scrub frequency vs MTTDL,
// correlation factor vs loss probability, replication level vs MTTDL — and
// before this subsystem each bench hand-rolled its own loop of EstimateMttdl
// calls, each spawning and joining threads. A SweepSpec describes the grid
// (a base scenario plus axes of labelled mutations, or an explicit cell
// list); SweepRunner executes every cell's trials as interleaved work units
// on one persistent WorkerPool and returns a structured SweepResult with
// table / CSV / JSON emitters.
//
// Cells are Scenarios (src/scenario/scenario.h), so an axis may mutate any
// replica's field — replica 2's scrub cadence, the tape replica's audit
// rate, one batch's initial age — not just global knobs.
//
// Determinism contract (see src/sweep/README.md):
//   * trial t of a cell uses the stream DeriveSeed(cell_seed, t) — except in
//     kCounterV1 mode, where draw n of trial t is the pure function
//     CounterMix(cell_seed, t, n) (src/util/random.h) and cell_seed doubles
//     as the counter key. Either way no trial depends on the trials before
//     it, so any trial range [a, b) of a cell runs on its own;
//   * cell_seed is DeriveSeed(spec_seed, hash(cell label)) in the default
//     kPerCellDerived mode — a function of the cell's identity, not of its
//     position; spec_seed itself in kSharedRoot mode (every cell sees
//     the same trial streams, the convention of the pre-sweep benches); or
//     DeriveSeed(spec_seed, scenario.CanonicalHash()) in kScenarioDerived
//     and kCounterV1 modes — a function of the cell's *content*, so shards
//     that receive a serialized scenario (Scenario::ToJson / FromJson)
//     re-derive the same streams with no label coordination;
//   * aggregation is block-structured (kTrialBlockSize below) and folded in
//     trial order.
// Together these make every estimate bit-identical regardless of the pool's
// size, lane scheduling, and the order cells were added to the spec.

#ifndef LONGSTORE_SRC_SWEEP_SWEEP_H_
#define LONGSTORE_SRC_SWEEP_SWEEP_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/rare/biased_sampler.h"
#include "src/scenario/scenario.h"
#include "src/storage/metrics.h"
#include "src/storage/replicated_system.h"
#include "src/sweep/accumulator.h"
#include "src/sweep/worker_pool.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace longstore {

// Trial volume and seeding of one estimate (SweepOptions::mc).
struct McConfig {
  int64_t trials = 10000;
  uint64_t seed = 0x10ca1c0ffee;
  // Safety cap per MTTDL trial; trials that survive this long are censored
  // (counted, and a lower-bound estimate is reported).
  Duration max_trial_time = Duration::Years(100.0e6);
  double confidence = 0.95;
};

// --- per-estimand results (one per SweepOptions::Estimand) -----------------

struct MttdlEstimate {
  // Over uncensored trials; values in years.
  RunningStats loss_time_years;
  int64_t censored_trials = 0;
  Interval ci_years;  // normal-approximation CI on the mean

  SimMetrics aggregate_metrics;

  double mean_years() const { return loss_time_years.mean(); }
};

struct LossProbabilityEstimate {
  int64_t trials = 0;
  int64_t losses = 0;
  Interval wilson_ci;
  SimMetrics aggregate_metrics;

  double probability() const {
    return trials > 0 ? static_cast<double>(losses) / static_cast<double>(trials) : 0.0;
  }
};

// Censored (type-I) MTTDL: every trial runs for at most the window, and the
// exponential maximum-likelihood estimator
//   MTTDL ≈ total observed time / number of losses
// is applied. Trials cost O(window) regardless of MTTDL, which makes
// millennia-scale archives affordable. Valid when the time-to-loss is
// approximately exponential, i.e. the window exceeds the chain's mixing
// time — true in every rare-loss regime this library targets.
struct CensoredMttdlEstimate {
  int64_t trials = 0;
  int64_t losses = 0;
  double observed_years = 0.0;  // total time at risk across trials
  Duration mttdl = Duration::Infinite();
  // CI from the Poisson uncertainty on the loss count; hi is infinite when
  // no losses were observed (the estimate is then a lower bound).
  Interval ci_years;
  SimMetrics aggregate_metrics;
};

// Importance-sampled mission-loss probability (Estimand::
// kWeightedLossProbability): trials run under the FaultBias change of
// measure and each loss counts its exact likelihood-ratio weight, so the
// weighted mean estimates the *nominal* loss probability unbiasedly.
// `weighted` holds the per-trial values w·1{loss} over all trials (zeros
// included), accumulated block-deterministically like every other estimand.
struct WeightedLossProbabilityEstimate {
  int64_t trials = 0;
  int64_t hits = 0;  // trials that observed a (biased) loss
  RunningStats weighted;
  Interval ci;  // normal-approximation CI on the weighted mean
  // Standard IS diagnostics: relative error = SE / mean (infinite until the
  // first hit), and effective sample size (Σw·I)² / Σ(w·I)² — the number of
  // ideal unweighted samples carrying the same information. A tiny ESS with
  // many hits means a few huge weights dominate: the bias is too strong.
  double relative_error = 0.0;
  double effective_sample_size = 0.0;
  double max_weight = 0.0;
  SimMetrics aggregate_metrics;

  double probability() const { return weighted.mean(); }
};

// The position of a cell along one axis: the axis name, the point's display
// label, and a numeric value for plotting/JSON (0 when not meaningful).
struct SweepCoordinate {
  std::string axis;
  std::string label;
  double value = 0.0;
};

// A grid of Scenario variants. Either add axes (the cells are the Cartesian
// product of all axis points, applied to the base in axis order) or add
// explicit cells; mixing the two is an error. A spec with no axes and no
// explicit cells has exactly one cell: the base.
class SweepSpec {
 public:
  using ScenarioMutation = std::function<void(Scenario&)>;

  // The default base is a mirrored pair of default ReplicaSpecs; axes that
  // mutate it usually replace the replicas outright.
  SweepSpec();
  explicit SweepSpec(Scenario base);

  // Starts a new axis; subsequent AddPoint calls attach to it.
  SweepSpec& AddAxis(std::string name);

  // Adds a point to the most recently added axis. `apply` mutates the cell
  // under construction and may touch any replica's field; `value` is the
  // point's numeric coordinate (used by emitters and Cell::value()).
  SweepSpec& AddPoint(std::string label, double value, ScenarioMutation apply);

  // Adds a fully-formed cell (for grids that are not a Cartesian product,
  // e.g. a hand-picked list of erasure-code geometries or heterogeneous
  // fleets). Cell labels double as seed-derivation identity in
  // kPerCellDerived mode: distinct labels get independent trial streams,
  // duplicated labels share one.
  SweepSpec& AddCell(std::string label, Scenario scenario);

  struct Cell {
    size_t index = 0;
    std::string label;
    std::vector<SweepCoordinate> coordinates;
    // The cell's system description — what SweepRunner executes.
    Scenario scenario;

    // The numeric coordinate along `axis`; throws std::out_of_range if the
    // cell has no such axis.
    double value(const std::string& axis) const;
  };

  // Materializes the grid. Throws std::invalid_argument for an axis with no
  // points or a spec mixing axes and explicit cells.
  std::vector<Cell> BuildCells() const;

  std::vector<std::string> AxisNames() const;
  size_t CellCount() const;

 private:
  struct Point {
    std::string label;
    double value;
    ScenarioMutation apply;
  };
  struct Axis {
    std::string name;
    std::vector<Point> points;
  };
  struct ExplicitCell {
    std::string label;
    Scenario scenario;
  };

  Scenario base_scenario_;
  std::vector<Axis> axes_;
  std::vector<ExplicitCell> explicit_cells_;
};

struct SweepOptions {
  enum class Estimand {
    kMttdl,            // simulate each trial to data loss (or the safety cap)
    kLossProbability,  // simulate over `mission`, count losses
    kCensoredMttdl,    // type-I censored MLE over `window` (rare-loss regime)
    // Importance-sampled loss probability over `mission` under `bias`
    // (src/rare/): likelihood-ratio-weighted losses, for probabilities far
    // below 1/trials. kSharedRoot sweeps with an identity bias reproduce
    // kLossProbability's trial outcomes bit for bit (weights ≡ 1).
    kWeightedLossProbability,
  };
  enum class SeedMode {
    kPerCellDerived,  // cell_seed = DeriveSeed(mc.seed, hash(cell label))
    kSharedRoot,      // cell_seed = mc.seed (all cells share trial streams)
    // cell_seed = DeriveSeed(mc.seed, scenario.CanonicalHash()): derived
    // from the cell's *content*, not its label or position. Two processes
    // that exchange a scenario as JSON (sharded fan-out) re-derive the same
    // trial streams with no label coordination; relabelling a cell cannot
    // change its estimate.
    kScenarioDerived,
    // Counter-based streams (src/util/random.h CounterMix): the cell key is
    // DeriveSeed(mc.seed, scenario.CanonicalHash()) as in kScenarioDerived,
    // but draw n of trial t is the pure function CounterMix(key, t, n) —
    // every draw of every trial is addressable in O(1), which is what the
    // batched SoA prefilter over initial draws needs. (Trial ranges need
    // only per-trial seeding, which every mode has.) Streams differ from
    // every xoshiro-based mode; the "V1" is the stream-freeze version (see
    // src/util/README.md).
    kCounterV1,
  };

  Estimand estimand = Estimand::kMttdl;
  Duration mission = Duration::Years(50.0);  // kLossProbability horizon
  Duration window = Duration::Years(100.0);  // kCensoredMttdl trial window
  // kWeightedLossProbability change of measure (identity = plain MC with
  // weights ≡ 1). Validated by Run(). Shared by every cell of the sweep;
  // use src/rare/rare_event.h to auto-tune it per configuration first.
  FaultBias bias;

  // trials / seed / max_trial_time / confidence.
  McConfig mc;
  SeedMode seed_mode = SeedMode::kPerCellDerived;

  // Adaptive per-cell stopping (kMttdl only): run mc.trials, then grow each
  // unconverged cell's trial count geometrically (x4, accumulating — earlier
  // trials are never discarded) until the CI half-width falls below
  // relative_precision * mean or the cell reaches max_trials. Converged
  // cells drop out of later rounds; stragglers keep the pool to themselves.
  bool adaptive = false;
  double relative_precision = 0.05;
  int64_t max_trials = 1000000;
};

// Seed-mode names as shard documents and sweep_fleet's --seed-mode flag
// spell them: "per_cell_derived", "shared_root", "scenario_derived" and
// "counter_v1". SeedModeFromName gives nullopt for any other name.
const char* SeedModeName(SweepOptions::SeedMode mode);
std::optional<SweepOptions::SeedMode> SeedModeFromName(std::string_view name);

struct SweepCellResult {
  size_t index = 0;
  std::string label;
  std::vector<SweepCoordinate> coordinates;

  // Exactly one of these is populated, matching SweepOptions::estimand.
  std::optional<MttdlEstimate> mttdl;
  std::optional<LossProbabilityEstimate> loss;
  std::optional<CensoredMttdlEstimate> censored;
  std::optional<WeightedLossProbabilityEstimate> weighted;

  int64_t trials = 0;  // total trials executed for this cell
  int rounds = 0;      // 1 unless adaptive
  // Adaptive runs: the CI half-width (years) measured after each round.
  std::vector<double> half_width_history;
};

class SweepResult {
 public:
  std::vector<std::string> axis_names;
  SweepOptions::Estimand estimand = SweepOptions::Estimand::kMttdl;
  std::vector<SweepCellResult> cells;

  // First cell with the given label; throws std::out_of_range if absent.
  const SweepCellResult& ByLabel(const std::string& label) const;

  // Trials executed across every cell.
  int64_t TotalTrials() const;

  // One row per cell: coordinate columns, then the estimate columns for the
  // sweep's estimand.
  Table ToTable() const;
  std::string ToCsv() const;
  // A JSON array of cell objects (coordinates, estimate, CI, trials,
  // half-width history) for plotting pipelines.
  std::string ToJson() const;
};

// --- execution core (shared with the shard driver, src/shard/) -------------

// The raw execution state of one cell: the folded trial accumulator plus the
// bookkeeping the result emitters need (trials run, adaptive rounds, CI
// half-width trajectory). The shard merger folds worker pieces onto it and
// the service cache stores it: finalizing it yields the same bits however
// its trials were distributed.
struct SweepCellExecution {
  size_t index = 0;
  std::string label;
  std::vector<SweepCoordinate> coordinates;
  TrialAccumulator acc;
  int64_t trials = 0;
  int rounds = 0;
  std::vector<double> half_width_history;
};

// The cell seed (counter key in kCounterV1) the executor derives for `cell`
// under `options` — the seed-mode switch of the determinism contract above,
// exposed so shard coordinators and tests derive identical streams.
uint64_t SweepCellSeed(const SweepOptions& options, const SweepSpec::Cell& cell);

// Fixed trial block size: block b of a cell covers trials
// [b*256, (b+1)*256), aligned to the absolute trial index, and owns one
// accumulator. 256 trials amortize the scheduling atomics while keeping
// enough blocks for load balancing on bench-sized trial counts. Changing this
// value changes the (deterministic) fold structure and therefore the last-ulp
// aggregate values; treat it as part of the determinism contract.
inline constexpr int64_t kTrialBlockSize = 256;

static_assert(kTrialBlockSize == kTrialPrefilterMaxBlock,
              "the storage-layer batch prefilter sizes its stack scratch to "
              "the sweep trial block");

// The unit of work from the sweep loop up to the fleet: trials [begin, end)
// of `cell`, which must outlive the call.
struct CellTrialRange {
  const SweepSpec::Cell* cell = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
};

// The one trial executor. Runs every range on `pool` as one batch, on
// min(pool.size(), blocks) lanes, and returns, per range, the accumulator of every index-aligned trial block it
// covers (kTrialBlockSize), in trial order. The blocks of all ranges form
// one work list drained by the lanes with no barrier between ranges, so a
// slow cell cannot strand lanes that finished a fast one; each lane builds
// one TrialRunner per range on first use and reuses it for that range's
// later blocks. The in-process round loop (RunSweepCells) and the shard
// worker (src/shard/ RunShard) both call it. Valid under every seed mode:
// trial t's stream is a function of (cell seed, t) alone, so folding, in
// trial order, the blocks of ranges that tile [a, b) with seams on block
// boundaries yields exactly the accumulator of one [a, b) run. kCounterV1
// adds per-draw access, which only the batch prefilter uses. When `busy_ns`
// is non-null it is resized to the range count and, with telemetry live,
// receives each range's summed block time (never read by results). Throws
// std::invalid_argument for a range with begin < 0 or end < begin; cells
// and options must be pre-validated.
std::vector<std::vector<TrialAccumulator>> RunCellTrialRanges(
    WorkerPool& pool, const std::vector<CellTrialRange>& ranges,
    const SweepOptions& options, std::vector<int64_t>* busy_ns = nullptr);

// Records one executed cell in the sweep.* telemetry (src/obs/README.md):
// `trials` trials over `rounds` rounds in `busy_ns` of summed lane time. A
// no-op with telemetry off. RunSweepCells records each cell once; a shard
// worker records each trial range it ran as one single-round cell.
void RecordSweepCellTelemetry(int64_t trials, int rounds, int64_t busy_ns);

// Validates `options` exactly as SweepRunner::Run does; throws
// std::invalid_argument on the first inconsistency.
void ValidateSweepOptions(const SweepOptions& options);

// Validates every cell exactly as SweepRunner::Run does (Scenario::Validate,
// tagged with the cell label).
void ValidateSweepCells(const std::vector<SweepSpec::Cell>& cells);

// Runs one round of a sweep: for every j, trials [ranges[j].begin,
// ranges[j].end) of *ranges[j].cell, folded in trial order onto
// executions[j] — the cell's state before the round, whose trials equal
// ranges[j].begin — after which executions[j] has trials = ranges[j].end
// and one more round. Returns, per range, whether it ran; a range that did
// not (a fleet unit lost after its retries) leaves executions[j]
// unspecified.
using SweepRoundExecutor = std::function<std::vector<bool>(
    const std::vector<CellTrialRange>& ranges,
    std::vector<SweepCellExecution>& executions)>;

// The one round loop, shared by the in-process runner (RunSweepCells) and
// the fleet coordinator (src/fleet/). Each round hands every unfinished
// cell's next trial range to `run_round`; a non-adaptive sweep is one round
// of mc.trials; an adaptive one (kMttdl) judges every cell after each round
// and grows the unconverged ones geometrically. A cell whose range did not
// run leaves the sweep. Returns the executions of the remaining cells in
// cell order. The ranges point into `cells`. Cells and options must be
// pre-validated.
//
// `prior` empty is a cold run. Otherwise the sweep continues from the raw
// executions of an earlier run instead of restarting: each cell's folded
// accumulator, trial count and round history are restored, the last
// round's verdict is re-judged under *these* options, and unconverged cells
// rejoin the geometric round schedule. Because trial t of a cell is a
// function of (cell seed, t) alone — independent of round boundaries — and
// the round-target schedule is independent of relative_precision, resuming
// a converged looser-precision run at a tighter relative_precision returns
// executions *byte-identical* to a cold run at the tighter precision, while
// only simulating the trials beyond `prior`. A prior must come from the
// same cells/mc/seed-mode configuration, or the continuation silently
// computes a different sweep. Throws std::invalid_argument, before any
// round runs, unless the request is adaptive, `prior` lines up with `cells`
// one to one (same order and labels), and every prior cell carries
// completed trials and one half-width per round.
std::vector<SweepCellExecution> RunSweepRounds(
    const std::vector<SweepSpec::Cell>& cells, const SweepOptions& options,
    std::vector<SweepCellExecution> prior, const SweepRoundExecutor& run_round);

// Executes every cell's trials on `pool` and returns the raw per-cell
// executions in cell order: RunSweepRounds from `prior` (empty for a cold
// run; see there for a resume's checks and contract), with each round run by
// RunCellTrialRanges and its blocks folded in trial order — the executor the
// shard worker runs too, so a shard's blocks are bit-identical to the same
// trials' blocks here by construction, not by careful reimplementation.
// Cells and options must be pre-validated.
std::vector<SweepCellExecution> RunSweepCells(
    WorkerPool& pool, std::vector<SweepSpec::Cell> cells,
    const SweepOptions& options, std::vector<SweepCellExecution> prior = {});

// Finalizes raw executions (already in result order) into a SweepResult.
SweepResult FinalizeSweepCells(std::vector<SweepCellExecution> executions,
                               std::vector<std::string> axis_names,
                               SweepOptions::Estimand estimand, double confidence);

class SweepRunner {
 public:
  // `pool` must outlive the runner; nullptr means WorkerPool::Shared().
  explicit SweepRunner(WorkerPool* pool = nullptr);

  // Executes the grid's trials on the pool. Validates every cell config and
  // the options up front (std::invalid_argument), so no trial runs against a
  // half-checked spec.
  SweepResult Run(const SweepSpec& spec, const SweepOptions& options) const;

  // Evaluates fn(cell) for every cell concurrently on the pool; the result
  // vector is in cell order. For analytic per-cell work (CTMC solves, closed
  // forms) that benefits from the pool but needs no trials. The result type
  // must be default-constructible; fn must be safe to call concurrently.
  template <typename Fn>
  auto Map(const SweepSpec& spec, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, const SweepSpec::Cell&>> {
    using Result = std::invoke_result_t<Fn&, const SweepSpec::Cell&>;
    static_assert(!std::is_same_v<Result, bool>,
                  "Map cannot return bool: concurrent lanes would race on "
                  "std::vector<bool>'s packed bits; return int or a struct");
    const std::vector<SweepSpec::Cell> cells = spec.BuildCells();
    std::vector<Result> results(cells.size());
    if (cells.empty()) {
      return results;
    }
    std::atomic<size_t> next{0};
    const int lanes = std::min(pool_->size(), static_cast<int>(cells.size()));
    pool_->RunLanes(lanes, [&](int) {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cells.size()) {
          break;
        }
        results[i] = fn(cells[i]);
      }
    });
    return results;
  }

  WorkerPool& pool() const { return *pool_; }

 private:
  WorkerPool* pool_;
};

// --- one-cell estimator ------------------------------------------------------
//
// Simulates each trial to data loss (or the safety cap) and averages: a
// one-cell kSharedRoot sweep on WorkerPool::Shared(). The root seed is the
// cell seed, so trial k draws from DeriveSeed(mc.seed, k), and the block fold
// makes the estimate bit-identical for any pool size.
MttdlEstimate EstimateMttdl(const Scenario& scenario, const McConfig& mc);

}  // namespace longstore

#endif  // LONGSTORE_SRC_SWEEP_SWEEP_H_
