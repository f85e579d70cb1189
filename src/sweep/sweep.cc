#include "src/sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/util/json.h"
#include "src/util/random.h"
#include "src/util/stats.h"

namespace longstore {
namespace {

// The trial horizon for the configured estimand (the one place this mapping
// lives).
Duration SweepHorizon(const SweepOptions& options) {
  switch (options.estimand) {
    case SweepOptions::Estimand::kMttdl:
      return options.mc.max_trial_time;
    case SweepOptions::Estimand::kCensoredMttdl:
      return options.window;
    default:
      return options.mission;
  }
}

// Folds one trial's outcome into the block accumulator under the configured
// estimand.
void AccumulateOutcome(SweepOptions::Estimand estimand, Duration horizon,
                       const RunOutcome& outcome, TrialAccumulator& acc) {
  using Estimand = SweepOptions::Estimand;
  switch (estimand) {
    case Estimand::kMttdl:
      if (outcome.loss_time) {
        acc.loss_years.Add(outcome.loss_time->years());
      } else {
        acc.censored++;
      }
      break;
    case Estimand::kLossProbability:
      if (outcome.loss_time) {
        acc.losses++;
      }
      break;
    case Estimand::kCensoredMttdl:
      if (outcome.loss_time) {
        acc.losses++;
        acc.observed_years += outcome.loss_time->years();
      } else {
        acc.observed_years += horizon.years();
      }
      break;
    case Estimand::kWeightedLossProbability:
      if (outcome.loss_time) {
        acc.losses++;
        acc.weighted.Add(std::exp(outcome.log_weight));
      } else {
        acc.weighted.Add(0.0);
      }
      break;
  }
  acc.metrics.Merge(outcome.metrics);
}

// Runs trials [begin, end) — one index-aligned block of a cell whose seed
// (the kCounterV1 key, else the per-trial derivation root) is `seed` — into
// `acc`. The counter path is the batched SoA kernel: one prefilter pass
// reads the block's initial draws straight from CounterMix and decides,
// exactly as the engine would, which trials process no event within the
// horizon; those contribute their (censored, zero-metric) outcome without
// touching the event loop.
void RunTrialBlock(TrialRunner& runner, const SweepOptions& options,
                   Duration horizon, uint64_t seed, int64_t begin, int64_t end,
                   TrialAccumulator& acc) {
  const SweepOptions::Estimand estimand = options.estimand;
  if (options.seed_mode == SweepOptions::SeedMode::kCounterV1) {
    uint8_t skip[kTrialPrefilterMaxBlock];
    const bool prefiltered = runner.PrefilterCensoredBlock(
        seed, begin, static_cast<int>(end - begin), horizon, skip);
    const RunOutcome censored;
    for (int64_t t = begin; t < end; ++t) {
      if (prefiltered && skip[t - begin] != 0) {
        AccumulateOutcome(estimand, horizon, censored, acc);
      } else {
        AccumulateOutcome(
            estimand, horizon,
            runner.RunCounter(seed, static_cast<uint64_t>(t), horizon), acc);
      }
    }
    return;
  }
  for (int64_t t = begin; t < end; ++t) {
    AccumulateOutcome(estimand, horizon,
                      runner.Run(DeriveSeed(seed, static_cast<uint64_t>(t)), horizon),
                      acc);
  }
}

constexpr std::pair<SweepOptions::SeedMode, const char*> kSeedModeNames[] = {
    {SweepOptions::SeedMode::kPerCellDerived, "per_cell_derived"},
    {SweepOptions::SeedMode::kSharedRoot, "shared_root"},
    {SweepOptions::SeedMode::kScenarioDerived, "scenario_derived"},
    {SweepOptions::SeedMode::kCounterV1, "counter_v1"},
};

}  // namespace

// --- SweepOptions ----------------------------------------------------------

const char* SeedModeName(SweepOptions::SeedMode mode) {
  for (const auto& [entry, name] : kSeedModeNames) {
    if (entry == mode) {
      return name;
    }
  }
  return "per_cell_derived";
}

std::optional<SweepOptions::SeedMode> SeedModeFromName(std::string_view name) {
  for (const auto& [mode, entry] : kSeedModeNames) {
    if (entry == name) {
      return mode;
    }
  }
  return std::nullopt;
}

// --- SweepSpec -------------------------------------------------------------

SweepSpec::SweepSpec() { base_scenario_.replicas.resize(2); }

SweepSpec::SweepSpec(Scenario base) : base_scenario_(std::move(base)) {}

SweepSpec& SweepSpec::AddAxis(std::string name) {
  if (!explicit_cells_.empty()) {
    throw std::invalid_argument("SweepSpec: cannot mix axes and explicit cells");
  }
  axes_.push_back(Axis{std::move(name), {}});
  return *this;
}

SweepSpec& SweepSpec::AddPoint(std::string label, double value, ScenarioMutation apply) {
  if (axes_.empty()) {
    throw std::invalid_argument("SweepSpec: AddPoint before any AddAxis");
  }
  if (!apply) {
    throw std::invalid_argument("SweepSpec: AddPoint requires a mutation");
  }
  axes_.back().points.push_back(Point{std::move(label), value, std::move(apply)});
  return *this;
}

SweepSpec& SweepSpec::AddCell(std::string label, Scenario scenario) {
  if (!axes_.empty()) {
    throw std::invalid_argument("SweepSpec: cannot mix axes and explicit cells");
  }
  explicit_cells_.push_back(ExplicitCell{std::move(label), std::move(scenario)});
  return *this;
}

double SweepSpec::Cell::value(const std::string& axis) const {
  for (const SweepCoordinate& coordinate : coordinates) {
    if (coordinate.axis == axis) {
      return coordinate.value;
    }
  }
  throw std::out_of_range("SweepSpec::Cell: no axis named '" + axis + "'");
}

size_t SweepSpec::CellCount() const {
  if (!explicit_cells_.empty()) {
    return explicit_cells_.size();
  }
  size_t count = 1;
  for (const Axis& axis : axes_) {
    count *= axis.points.size();
  }
  return count;
}

std::vector<std::string> SweepSpec::AxisNames() const {
  std::vector<std::string> names;
  names.reserve(axes_.size());
  for (const Axis& axis : axes_) {
    names.push_back(axis.name);
  }
  return names;
}

std::vector<SweepSpec::Cell> SweepSpec::BuildCells() const {
  std::vector<Cell> cells;
  if (!explicit_cells_.empty()) {
    cells.reserve(explicit_cells_.size());
    for (const ExplicitCell& explicit_cell : explicit_cells_) {
      Cell cell;
      cell.index = cells.size();
      cell.label = explicit_cell.label;
      cell.scenario = explicit_cell.scenario;
      cells.push_back(std::move(cell));
    }
    return cells;
  }
  for (const Axis& axis : axes_) {
    if (axis.points.empty()) {
      throw std::invalid_argument("SweepSpec: axis '" + axis.name + "' has no points");
    }
  }
  // Row-major Cartesian product: the last axis varies fastest.
  const size_t total = CellCount();
  cells.reserve(total);
  std::vector<size_t> indices(axes_.size(), 0);
  for (size_t n = 0; n < total; ++n) {
    Cell cell;
    cell.index = n;
    cell.scenario = base_scenario_;
    for (size_t a = 0; a < axes_.size(); ++a) {
      const Point& point = axes_[a].points[indices[a]];
      point.apply(cell.scenario);
      cell.coordinates.push_back(SweepCoordinate{axes_[a].name, point.label, point.value});
      if (!cell.label.empty()) {
        cell.label += ", ";
      }
      cell.label += point.label;
    }
    cells.push_back(std::move(cell));
    for (size_t a = axes_.size(); a-- > 0;) {
      if (++indices[a] < axes_[a].points.size()) {
        break;
      }
      indices[a] = 0;
    }
  }
  return cells;
}

// --- execution core --------------------------------------------------------

namespace {

// Per-estimand finalizers: the estimate structs from a folded accumulator.
MttdlEstimate FinalizeMttdl(const TrialAccumulator& acc, double confidence) {
  MttdlEstimate estimate;
  estimate.loss_time_years = acc.loss_years;
  estimate.censored_trials = acc.censored;
  estimate.ci_years = MeanConfidenceInterval(acc.loss_years, confidence);
  estimate.aggregate_metrics = acc.metrics;
  return estimate;
}

LossProbabilityEstimate FinalizeLossProbability(const TrialAccumulator& acc,
                                                int64_t trials, double confidence) {
  LossProbabilityEstimate estimate;
  estimate.trials = trials;
  estimate.losses = acc.losses;
  estimate.wilson_ci = WilsonInterval(acc.losses, trials, confidence);
  estimate.aggregate_metrics = acc.metrics;
  return estimate;
}

WeightedLossProbabilityEstimate FinalizeWeightedLoss(const TrialAccumulator& acc,
                                                     int64_t trials,
                                                     double confidence) {
  WeightedLossProbabilityEstimate estimate;
  estimate.trials = trials;
  estimate.hits = acc.losses;
  estimate.weighted = acc.weighted;
  estimate.ci = MeanConfidenceInterval(acc.weighted, confidence);
  const double mean = acc.weighted.mean();
  estimate.relative_error = mean > 0.0
                                ? acc.weighted.std_error() / mean
                                : std::numeric_limits<double>::infinity();
  // ESS = (Σx)² / Σx² with x = w·1{loss}; recover Σx² from Welford's M2
  // (variance · (n−1)) plus n·mean².
  const double n = static_cast<double>(trials);
  const double sum = mean * n;
  const double sum_sq =
      acc.weighted.variance() * (n - 1.0) + n * mean * mean;
  estimate.effective_sample_size = sum_sq > 0.0 ? sum * sum / sum_sq : 0.0;
  estimate.max_weight = acc.weighted.max();
  estimate.aggregate_metrics = acc.metrics;
  return estimate;
}

CensoredMttdlEstimate FinalizeCensoredMttdl(const TrialAccumulator& acc,
                                            int64_t trials, double confidence) {
  CensoredMttdlEstimate estimate;
  estimate.trials = trials;
  estimate.losses = acc.losses;
  estimate.observed_years = acc.observed_years;
  estimate.aggregate_metrics = acc.metrics;
  if (acc.losses > 0) {
    estimate.mttdl =
        Duration::Years(acc.observed_years / static_cast<double>(acc.losses));
    // Normal approximation to the Poisson count d: MTTDL in T/(d +/- z*sqrt(d)).
    const double z = NormalQuantileTwoSided(confidence);
    const double d = static_cast<double>(acc.losses);
    const double hi_count = d + z * std::sqrt(d);
    const double lo_count = d - z * std::sqrt(d);
    estimate.ci_years.lo = acc.observed_years / hi_count;
    estimate.ci_years.hi = lo_count > 0.0
                               ? acc.observed_years / lo_count
                               : std::numeric_limits<double>::infinity();
  } else {
    estimate.mttdl = Duration::Infinite();
    // Rule of three: zero losses over T observed years puts MTTDL above T/3
    // at 95% confidence (P(0 losses) = exp(-T/MTTDL) = 0.05).
    estimate.ci_years.lo = acc.observed_years / 3.0;
    estimate.ci_years.hi = std::numeric_limits<double>::infinity();
  }
  return estimate;
}

}  // namespace

void ValidateSweepOptions(const SweepOptions& options) {
  using Estimand = SweepOptions::Estimand;
  if (options.mc.trials <= 0) {
    throw std::invalid_argument("Monte Carlo: trials must be positive");
  }
  if (!(options.mc.confidence > 0.0 && options.mc.confidence < 1.0)) {  // NaN too
    throw std::invalid_argument("SweepOptions: confidence must lie in (0, 1)");
  }
  if (options.estimand == Estimand::kMttdl &&
      (!(options.mc.max_trial_time.hours() > 0.0) ||
       options.mc.max_trial_time.is_infinite())) {
    throw std::invalid_argument("SweepOptions: max_trial_time must be positive finite");
  }
  if ((options.estimand == Estimand::kLossProbability ||
       options.estimand == Estimand::kWeightedLossProbability) &&
      (!(options.mission.hours() > 0.0) || options.mission.is_infinite())) {
    throw std::invalid_argument("SweepOptions: mission must be positive finite");
  }
  if (options.estimand == Estimand::kWeightedLossProbability) {
    if (auto error = options.bias.Validate()) {
      throw std::invalid_argument("FaultBias: " + *error);
    }
  }
  if (options.estimand == Estimand::kCensoredMttdl &&
      (!(options.window.hours() > 0.0) || options.window.is_infinite())) {
    throw std::invalid_argument("SweepOptions: window must be positive finite");
  }
  if (options.adaptive) {
    if (options.estimand != Estimand::kMttdl) {
      throw std::invalid_argument("SweepRunner: adaptive stopping requires kMttdl");
    }
    if (!(options.relative_precision > 0.0)) {
      throw std::invalid_argument("relative_precision must be positive");
    }
    if (options.max_trials <= 0) {
      throw std::invalid_argument("SweepRunner: max_trials must be positive");
    }
  }
}

void ValidateSweepCells(const std::vector<SweepSpec::Cell>& cells) {
  for (const SweepSpec::Cell& cell : cells) {
    if (auto error = cell.scenario.Validate()) {
      throw std::invalid_argument(
          "Scenario: " + *error +
          (cell.label.empty() ? "" : " (cell '" + cell.label + "')"));
    }
  }
}

namespace {

// Throws std::invalid_argument unless `prior` can seed a continuation of
// `cells` under `options` (RunSweepRounds' resume contract).
void CheckSweepPrior(const std::vector<SweepSpec::Cell>& cells,
                     const SweepOptions& options,
                     const std::vector<SweepCellExecution>& prior) {
  if (!options.adaptive) {
    // A non-adaptive request is an exact trial count; there is nothing to
    // continue toward, and "topping up" would change the rounds/history
    // metadata relative to the cold run it must match byte for byte.
    throw std::invalid_argument(
        "resume: only adaptive (kMttdl) sweeps can be resumed");
  }
  if (prior.size() != cells.size()) {
    throw std::invalid_argument("resume: prior has " + std::to_string(prior.size()) +
                                " cells, request has " +
                                std::to_string(cells.size()));
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCellExecution& from = prior[i];
    if (from.label != cells[i].label) {
      throw std::invalid_argument("resume: cell " + std::to_string(i) +
                                  " label mismatch: prior '" + from.label +
                                  "' vs request '" + cells[i].label + "'");
    }
    if (from.trials <= 0 || from.rounds <= 0) {
      throw std::invalid_argument("resume: prior cell '" + from.label +
                                  "' carries no completed trials");
    }
    // An adaptive run records one half-width per round; anything else lost
    // state.
    const size_t history = from.half_width_history.size();
    if (history != static_cast<size_t>(from.rounds)) {
      throw std::invalid_argument(
          "resume: prior cell '" + from.label + "' has " +
          std::to_string(history) + " half-width entries for " +
          std::to_string(from.rounds) + " rounds");
    }
  }
}

}  // namespace

std::vector<SweepCellExecution> RunSweepRounds(
    const std::vector<SweepSpec::Cell>& cells, const SweepOptions& options,
    std::vector<SweepCellExecution> prior, const SweepRoundExecutor& run_round) {
  const bool resumed = !prior.empty();
  if (resumed) {
    CheckSweepPrior(cells, options, prior);
  }
  const int64_t cap = options.adaptive ? options.max_trials
                                       : std::numeric_limits<int64_t>::max();
  struct CellState {
    SweepCellExecution execution;
    int64_t target = 0;
    bool done = false;  // converged, or its one non-adaptive round ran
    bool lost = false;  // a range of it did not run
    int64_t resumed_from = 0;  // trials before this run (telemetry only)
  };
  std::vector<CellState> states(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    CellState& state = states[i];
    if (resumed) {
      state.execution = std::move(prior[i]);
      state.resumed_from = state.execution.trials;
    }
    state.execution.index = cells[i].index;
    state.execution.label = cells[i].label;
    state.execution.coordinates = cells[i].coordinates;
    state.target = std::min<int64_t>(options.mc.trials, cap);
  }

  // The adaptive (kMttdl) verdict on a cell's folded trials: converged
  // (CI half-width within relative_precision of the mean, or max_trials
  // reached), or the next geometric round target. One body for the in-loop
  // decision and the resume re-decision, so the two can never disagree on a
  // boundary case.
  const auto decide = [&](CellState& state, bool append_half_width) {
    SweepCellExecution& execution = state.execution;
    const MttdlEstimate estimate = FinalizeMttdl(execution.acc, options.mc.confidence);
    const double mean = estimate.mean_years();
    const double half_width = (estimate.ci_years.hi - estimate.ci_years.lo) / 2.0;
    if (append_half_width) {
      execution.half_width_history.push_back(half_width);
    }
    if ((mean > 0.0 && half_width / mean <= options.relative_precision) ||
        execution.trials >= options.max_trials) {
      state.done = true;
    } else {
      state.target = std::min(options.max_trials, execution.trials * 4);
    }
  };

  if (resumed) {
    for (CellState& state : states) {
      // Re-judge the last completed round under *these* options.
      decide(state, /*append_half_width=*/false);
    }
  }

  std::vector<CellTrialRange> ranges;
  std::vector<size_t> positions;
  std::vector<SweepCellExecution> round;
  while (true) {
    // This round's work: every unfinished cell's next trial range.
    ranges.clear();
    positions.clear();
    round.clear();
    for (size_t i = 0; i < states.size(); ++i) {
      CellState& state = states[i];
      if (!state.done && !state.lost && state.execution.trials < state.target) {
        ranges.push_back(
            CellTrialRange{&cells[i], state.execution.trials, state.target});
        positions.push_back(i);
        round.push_back(std::move(state.execution));
      }
    }
    if (ranges.empty()) {
      break;
    }
    const std::vector<bool> ran = run_round(ranges, round);
    if (ran.size() != ranges.size() || round.size() != ranges.size()) {
      throw std::logic_error(
          "RunSweepRounds: the round executor lost track of its ranges");
    }

    // Decide each cell's fate on its merged state.
    for (size_t j = 0; j < ranges.size(); ++j) {
      CellState& state = states[positions[j]];
      state.execution = std::move(round[j]);
      if (!ran[j]) {
        state.lost = true;
      } else if (!options.adaptive) {
        state.done = true;
      } else {
        decide(state, /*append_half_width=*/true);
      }
    }
  }

  if (resumed && obs::Enabled()) {
    // Registered once; recording is lock-free on the kept references.
    static obs::Counter& m_resume_cells =
        obs::Registry::Global().counter("sweep.resume_cells");
    static obs::Counter& m_resume_delta =
        obs::Registry::Global().counter("sweep.resume_delta_trials");
    for (const CellState& state : states) {
      if (!state.lost) {
        m_resume_cells.Add(1);
        m_resume_delta.Add(state.execution.trials - state.resumed_from);
      }
    }
  }
  std::vector<SweepCellExecution> executions;
  executions.reserve(states.size());
  for (CellState& state : states) {
    if (!state.lost) {
      executions.push_back(std::move(state.execution));
    }
  }
  return executions;
}

uint64_t SweepCellSeed(const SweepOptions& options, const SweepSpec::Cell& cell) {
  switch (options.seed_mode) {
    case SweepOptions::SeedMode::kSharedRoot:
      return options.mc.seed;
    case SweepOptions::SeedMode::kPerCellDerived:
      // FNV-1a of the label: tied to the cell's identity, not its position,
      // so shuffling the order cells are added to a spec moves no estimate.
      return DeriveSeed(options.mc.seed, json::Fnv1a64(cell.label));
    case SweepOptions::SeedMode::kScenarioDerived:
    case SweepOptions::SeedMode::kCounterV1:
      return DeriveSeed(options.mc.seed, cell.scenario.CanonicalHash());
  }
  throw std::logic_error("SweepCellSeed: unknown seed mode");
}

std::vector<std::vector<TrialAccumulator>> RunCellTrialRanges(
    WorkerPool& pool, const std::vector<CellTrialRange>& ranges,
    const SweepOptions& options, std::vector<int64_t>* busy_ns) {
  // One work unit per index-aligned block of every range; unit `slot` is
  // the block's position in its range's accumulator list.
  struct BlockUnit {
    size_t range;
    int64_t begin;
    int64_t end;
    size_t slot;
  };
  std::vector<std::vector<TrialAccumulator>> blocks(ranges.size());
  std::vector<uint64_t> seeds(ranges.size());
  std::vector<BlockUnit> units;
  for (size_t j = 0; j < ranges.size(); ++j) {
    const CellTrialRange& range = ranges[j];
    if (range.begin < 0 || range.end < range.begin) {
      throw std::invalid_argument("RunCellTrialRanges: invalid trial range [" +
                                  std::to_string(range.begin) + ", " +
                                  std::to_string(range.end) + ")");
    }
    seeds[j] = SweepCellSeed(options, *range.cell);
    for (int64_t begin = range.begin; begin < range.end;) {
      const int64_t end =
          std::min(range.end, (begin / kTrialBlockSize + 1) * kTrialBlockSize);
      units.push_back(BlockUnit{j, begin, end, blocks[j].size()});
      blocks[j].emplace_back();
      begin = end;
    }
  }
  // Telemetry: per-range busy time (two clock reads per block, never per
  // trial), allocated once per call outside the zero-alloc steady state and
  // only when telemetry is live. Summed across lanes: busy, not elapsed.
  std::unique_ptr<std::atomic<int64_t>[]> busy;
  if (busy_ns != nullptr && obs::Enabled()) {
    busy = std::make_unique<std::atomic<int64_t>[]>(ranges.size());
  }

  if (!units.empty()) {
    const Duration horizon = SweepHorizon(options);
    const FaultBias* bias =
        options.estimand == SweepOptions::Estimand::kWeightedLossProbability
            ? &options.bias
            : nullptr;
    const int lanes = std::min(pool.size(), static_cast<int>(units.size()));
    std::atomic<size_t> next{0};
    pool.RunLanes(lanes, [&](int) {
      // One TrialRunner (simulator + system + rng) per range on this lane,
      // built on first use and reused for the range's later blocks: the
      // allocation-free engine's per-trial cost is a Reset, not a rebuild.
      std::vector<std::unique_ptr<TrialRunner>> runners(ranges.size());
      while (true) {
        const size_t u = next.fetch_add(1, std::memory_order_relaxed);
        if (u >= units.size()) {
          break;
        }
        const BlockUnit& unit = units[u];
        std::unique_ptr<TrialRunner>& runner = runners[unit.range];
        if (!runner) {
          const Scenario& scenario = ranges[unit.range].cell->scenario;
          runner = bias != nullptr
                       ? std::make_unique<TrialRunner>(
                             scenario, ConfigValidation::kPreValidated, *bias)
                       : std::make_unique<TrialRunner>(
                             scenario, ConfigValidation::kPreValidated);
        }
        const int64_t t0 = busy != nullptr ? obs::MonotonicNanos() : 0;
        RunTrialBlock(*runner, options, horizon, seeds[unit.range], unit.begin,
                      unit.end, blocks[unit.range][unit.slot]);
        if (busy != nullptr) {
          busy[unit.range].fetch_add(obs::MonotonicNanos() - t0,
                                     std::memory_order_relaxed);
        }
      }
    });
  }
  if (busy_ns != nullptr) {
    busy_ns->assign(ranges.size(), 0);
    for (size_t j = 0; busy != nullptr && j < ranges.size(); ++j) {
      (*busy_ns)[j] = busy[j].load(std::memory_order_relaxed);
    }
  }
  return blocks;
}

void RecordSweepCellTelemetry(int64_t trials, int rounds, int64_t busy_ns) {
  if (!obs::Enabled()) {
    return;
  }
  // Registered once; recording is lock-free on the kept references.
  static obs::Counter& m_cells = obs::Registry::Global().counter("sweep.cells");
  static obs::Counter& m_trials = obs::Registry::Global().counter("sweep.trials");
  static obs::Counter& m_rounds = obs::Registry::Global().counter("sweep.rounds");
  static obs::Histogram& h_trials =
      obs::Registry::Global().histogram("sweep.cell_trials");
  static obs::Histogram& h_rounds =
      obs::Registry::Global().histogram("sweep.cell_rounds");
  static obs::Histogram& h_wall =
      obs::Registry::Global().histogram("sweep.cell_wall_ns");
  m_cells.Add(1);
  m_trials.Add(trials);
  m_rounds.Add(rounds);
  h_trials.Record(trials);
  h_rounds.Record(rounds);
  h_wall.Record(busy_ns);
}

std::vector<SweepCellExecution> RunSweepCells(
    WorkerPool& pool, std::vector<SweepSpec::Cell> cells,
    const SweepOptions& options, std::vector<SweepCellExecution> prior) {
  // Telemetry only: each cell's summed block time.
  std::vector<int64_t> busy_ns(cells.size(), 0);
  std::vector<int64_t> range_busy_ns;
  std::vector<SweepCellExecution> executions = RunSweepRounds(
      cells, options, std::move(prior),
      [&](const std::vector<CellTrialRange>& ranges,
          std::vector<SweepCellExecution>& round) {
        const std::vector<std::vector<TrialAccumulator>> blocks =
            RunCellTrialRanges(pool, ranges, options, &range_busy_ns);
        for (size_t j = 0; j < ranges.size(); ++j) {
          for (const TrialAccumulator& block : blocks[j]) {
            round[j].acc.MergeFrom(block);
          }
          round[j].trials = ranges[j].end;
          round[j].rounds++;
          busy_ns[static_cast<size_t>(ranges[j].cell - cells.data())] +=
              range_busy_ns[j];
        }
        return std::vector<bool>(ranges.size(), true);
      });
  for (size_t i = 0; i < executions.size(); ++i) {
    RecordSweepCellTelemetry(executions[i].trials, executions[i].rounds,
                             busy_ns[i]);
  }
  return executions;
}

SweepResult FinalizeSweepCells(std::vector<SweepCellExecution> executions,
                               std::vector<std::string> axis_names,
                               SweepOptions::Estimand estimand, double confidence) {
  using Estimand = SweepOptions::Estimand;
  SweepResult result;
  result.axis_names = std::move(axis_names);
  result.estimand = estimand;
  result.cells.reserve(executions.size());
  for (SweepCellExecution& execution : executions) {
    SweepCellResult cell;
    cell.index = execution.index;
    cell.label = std::move(execution.label);
    cell.coordinates = std::move(execution.coordinates);
    cell.trials = execution.trials;
    cell.rounds = execution.rounds;
    cell.half_width_history = std::move(execution.half_width_history);
    switch (estimand) {
      case Estimand::kMttdl:
        cell.mttdl = FinalizeMttdl(execution.acc, confidence);
        break;
      case Estimand::kLossProbability:
        cell.loss = FinalizeLossProbability(execution.acc, execution.trials, confidence);
        break;
      case Estimand::kCensoredMttdl:
        cell.censored =
            FinalizeCensoredMttdl(execution.acc, execution.trials, confidence);
        break;
      case Estimand::kWeightedLossProbability:
        cell.weighted = FinalizeWeightedLoss(execution.acc, execution.trials, confidence);
        break;
    }
    result.cells.push_back(std::move(cell));
  }
  return result;
}

// --- SweepRunner -----------------------------------------------------------

SweepRunner::SweepRunner(WorkerPool* pool)
    : pool_(pool != nullptr ? pool : &WorkerPool::Shared()) {}

SweepResult SweepRunner::Run(const SweepSpec& spec, const SweepOptions& options) const {
  ValidateSweepOptions(options);
  std::vector<SweepSpec::Cell> cells = spec.BuildCells();
  if (cells.empty()) {
    throw std::invalid_argument("SweepRunner: the sweep has no cells");
  }
  ValidateSweepCells(cells);
  std::vector<SweepCellExecution> executions =
      RunSweepCells(*pool_, std::move(cells), options);
  return FinalizeSweepCells(std::move(executions), spec.AxisNames(), options.estimand,
                            options.mc.confidence);
}

// --- one-cell estimator ----------------------------------------------------

MttdlEstimate EstimateMttdl(const Scenario& scenario, const McConfig& mc) {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc = mc;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  return *SweepRunner().Run(SweepSpec(scenario), options).cells.front().mttdl;
}

// --- SweepResult -----------------------------------------------------------

const SweepCellResult& SweepResult::ByLabel(const std::string& label) const {
  for (const SweepCellResult& cell : cells) {
    if (cell.label == label) {
      return cell;
    }
  }
  throw std::out_of_range("SweepResult: no cell labelled '" + label + "'");
}

int64_t SweepResult::TotalTrials() const {
  int64_t total = 0;
  for (const SweepCellResult& cell : cells) {
    total += cell.trials;
  }
  return total;
}

Table SweepResult::ToTable() const {
  using Estimand = SweepOptions::Estimand;
  std::vector<std::string> headers =
      axis_names.empty() ? std::vector<std::string>{"cell"} : axis_names;
  switch (estimand) {
    case Estimand::kMttdl:
      headers.insert(headers.end(), {"MTTDL (y)", "CI half-width (y)", "censored",
                                     "trials"});
      break;
    case Estimand::kLossProbability:
      headers.insert(headers.end(), {"P(loss)", "CI lo", "CI hi", "trials"});
      break;
    case Estimand::kCensoredMttdl:
      headers.insert(headers.end(),
                     {"MTTDL (y)", "CI lo (y)", "CI hi (y)", "losses", "trials"});
      break;
    case Estimand::kWeightedLossProbability:
      headers.insert(headers.end(),
                     {"P(loss)", "CI lo", "CI hi", "rel err", "ESS", "hits", "trials"});
      break;
  }
  Table table(std::move(headers));
  for (const SweepCellResult& cell : cells) {
    std::vector<std::string> row;
    if (axis_names.empty()) {
      row.push_back(cell.label);
    } else {
      for (const SweepCoordinate& coordinate : cell.coordinates) {
        row.push_back(coordinate.label);
      }
    }
    switch (estimand) {
      case Estimand::kMttdl: {
        const MttdlEstimate& e = *cell.mttdl;
        row.push_back(Table::FmtYears(e.mean_years()));
        row.push_back(Table::Fmt((e.ci_years.hi - e.ci_years.lo) / 2.0, 2));
        row.push_back(std::to_string(e.censored_trials));
        break;
      }
      case Estimand::kLossProbability: {
        const LossProbabilityEstimate& e = *cell.loss;
        row.push_back(Table::Fmt(e.probability(), 4));
        row.push_back(Table::Fmt(e.wilson_ci.lo, 4));
        row.push_back(Table::Fmt(e.wilson_ci.hi, 4));
        break;
      }
      case Estimand::kCensoredMttdl: {
        const CensoredMttdlEstimate& e = *cell.censored;
        row.push_back(e.mttdl.is_infinite() ? "inf" : Table::FmtYears(e.mttdl.years()));
        row.push_back(Table::Fmt(e.ci_years.lo, 1));
        row.push_back(std::isinf(e.ci_years.hi) ? "inf" : Table::Fmt(e.ci_years.hi, 1));
        row.push_back(std::to_string(e.losses));
        break;
      }
      case Estimand::kWeightedLossProbability: {
        const WeightedLossProbabilityEstimate& e = *cell.weighted;
        row.push_back(Table::FmtSci(e.probability(), 3));
        row.push_back(Table::FmtSci(std::max(e.ci.lo, 0.0), 2));
        row.push_back(Table::FmtSci(e.ci.hi, 2));
        row.push_back(std::isinf(e.relative_error)
                          ? "inf"
                          : Table::Fmt(e.relative_error, 3));
        row.push_back(Table::Fmt(e.effective_sample_size, 1));
        row.push_back(std::to_string(e.hits));
        break;
      }
    }
    row.push_back(std::to_string(cell.trials));
    table.AddRow(std::move(row));
  }
  return table;
}

std::string SweepResult::ToCsv() const { return ToTable().ToCsv(); }

std::string SweepResult::ToJson() const {
  using Estimand = SweepOptions::Estimand;
  // Built with the canonical emitters (src/util/json.h) alone, so no byte
  // depends on the global C++ locale.
  std::string out = "[";
  const auto field = [&out](const char* key, double value) {
    out += key;
    json::AppendDouble(out, value);
  };
  const auto count = [&out](const char* key, int64_t value) {
    out += key;
    json::AppendInt64(out, value);
  };
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCellResult& cell = cells[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"label\":";
    json::AppendEscaped(out, cell.label);
    out += ",\"coordinates\":{";
    for (size_t c = 0; c < cell.coordinates.size(); ++c) {
      if (c > 0) {
        out += ',';
      }
      json::AppendEscaped(out, cell.coordinates[c].axis);
      field(":", cell.coordinates[c].value);
    }
    count("},\"trials\":", cell.trials);
    count(",\"rounds\":", cell.rounds);
    switch (estimand) {
      case Estimand::kMttdl: {
        const MttdlEstimate& e = *cell.mttdl;
        field(",\"estimand\":\"mttdl\",\"mean_years\":", e.mean_years());
        field(",\"ci_lo\":", e.ci_years.lo);
        field(",\"ci_hi\":", e.ci_years.hi);
        count(",\"censored\":", e.censored_trials);
        break;
      }
      case Estimand::kLossProbability: {
        const LossProbabilityEstimate& e = *cell.loss;
        field(",\"estimand\":\"loss_probability\",\"probability\":", e.probability());
        field(",\"ci_lo\":", e.wilson_ci.lo);
        field(",\"ci_hi\":", e.wilson_ci.hi);
        count(",\"losses\":", e.losses);
        break;
      }
      case Estimand::kCensoredMttdl: {
        const CensoredMttdlEstimate& e = *cell.censored;
        field(",\"estimand\":\"censored_mttdl\",\"mttdl_years\":", e.mttdl.years());
        field(",\"ci_lo\":", e.ci_years.lo);
        field(",\"ci_hi\":", e.ci_years.hi);
        count(",\"losses\":", e.losses);
        field(",\"observed_years\":", e.observed_years);
        break;
      }
      case Estimand::kWeightedLossProbability: {
        const WeightedLossProbabilityEstimate& e = *cell.weighted;
        field(",\"estimand\":\"weighted_loss_probability\",\"probability\":",
              e.probability());
        field(",\"ci_lo\":", e.ci.lo);
        field(",\"ci_hi\":", e.ci.hi);
        field(",\"relative_error\":", e.relative_error);
        field(",\"effective_sample_size\":", e.effective_sample_size);
        field(",\"max_weight\":", e.max_weight);
        count(",\"hits\":", e.hits);
        break;
      }
    }
    if (!cell.half_width_history.empty()) {
      out += ",\"half_width_history\":[";
      for (size_t h = 0; h < cell.half_width_history.size(); ++h) {
        if (h > 0) {
          out += ',';
        }
        json::AppendDouble(out, cell.half_width_history[h]);
      }
      out += ']';
    }
    out += '}';
  }
  out += ']';
  return out;
}

}  // namespace longstore
