#include "src/fleet/fleet.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <utility>

#include "src/fleet/subprocess.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/shard/shard.h"
#include "src/util/json.h"
#include "src/util/random.h"

namespace longstore {
namespace {

double MonotonicSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Retry backoff growth: doubling per attempt, capped at five seconds.
constexpr double kBackoffMaxSeconds = 5.0;
constexpr double kBackoffMultiplier = 2.0;
// Root of the jitter draws: fixed, so every fleet's retry schedule replays.
constexpr uint64_t kBackoffSeed = 0x5eedb0ffu;

// Backoff before retry `attempt` (1 = after the first failure): exponential
// growth capped at kBackoffMaxSeconds, scaled by 0.5..1.0 jitter drawn
// deterministically from (kBackoffSeed, unit, attempt) — no global RNG, so
// the schedule reproduces exactly in tests.
double JitteredDelay(const FleetOptions& options, int unit_id, int attempt) {
  double base = options.backoff_initial_seconds;
  for (int i = 1; i < attempt && base < kBackoffMaxSeconds; ++i) {
    base *= kBackoffMultiplier;
  }
  base = std::min(base, kBackoffMaxSeconds);
  const uint64_t draw = DeriveSeed(
      DeriveSeed(kBackoffSeed, static_cast<uint64_t>(unit_id)),
      static_cast<uint64_t>(attempt));
  const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
  return base * (0.5 + 0.5 * u);
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool ok =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return (std::fclose(f) == 0) && ok;
}

// One supervised work item: initially a planned shard; after an exhausted
// multi-cell unit is split, one of its cells.
struct Unit {
  enum class State { kReady, kRunning, kBackoff, kDone, kLost, kSplit };

  int id = 0;
  ShardSpec spec;
  State state = State::kReady;
  int attempt = 0;  // attempts started so far
  double ready_at = 0.0;
  double started_at = 0.0;
  Subprocess child;
  std::string spec_path;
  std::string last_error;
};

bool UnitFinished(const Unit& unit) {
  return unit.state == Unit::State::kDone || unit.state == Unit::State::kLost ||
         unit.state == Unit::State::kSplit;
}

void ValidateFleetOptions(const FleetOptions& opt) {
  if (opt.worker_path.empty()) {
    throw FleetError("fleet: worker_path is required");
  }
  if (opt.temp_dir.empty()) {
    throw FleetError("fleet: temp_dir is required");
  }
  if (opt.shard_count < 1 || opt.max_parallel < 1 || opt.max_retries < 0) {
    throw FleetError("fleet: shard_count and max_parallel must be >= 1, "
                     "max_retries >= 0");
  }
  if (!(opt.timeout_seconds >= 0.0)) {
    throw FleetError("fleet: timeout_seconds must be >= 0 (0 = no timeout)");
  }
  if (!(opt.backoff_initial_seconds > 0.0)) {
    throw FleetError("fleet: backoff_initial_seconds must be positive");
  }
}

// The single formatting path for supervision output: one rendered message
// per transition, prefixed with the run's content-derived sweep_id on the
// text log and attached as "msg" to the structured event in the trace
// journal. Neither sink can drift from the other.
template <typename... Args>
void EmitFleet(const FleetOptions& opt, uint64_t sweep_id,
               obs::TraceEvent event, const char* fmt, Args... args) {
  char msg[512];
  std::snprintf(msg, sizeof(msg), fmt, args...);
  if (opt.log != nullptr) {
    std::fprintf(opt.log, "[fleet 0x%016llx] %s\n",
                 static_cast<unsigned long long>(sweep_id), msg);
    std::fflush(opt.log);
  }
  if (opt.journal != nullptr) {
    event.Str("msg", msg);
    opt.journal->Emit(event);
  }
}

// Drives one round's shard units to completion: spawn up to max_parallel
// workers, detect crash/timeout/corrupt-output faults, retry with jittered
// backoff, split exhausted multi-cell units, and hand every verified result
// document to `consume` (which throws FleetError for inconsistencies a
// retry cannot fix). Adds the round's attempts to `stats` and the harvested
// workers' telemetry to `worker_metrics`; returns grid index -> last failure
// reason for every cell of every lost unit. `file_tag` prefixes every
// scratch file name so successive rounds over the same temp_dir never
// collide.
std::map<size_t, std::string> SuperviseUnits(
    const FleetOptions& opt, uint64_t sweep_id, const std::string& file_tag,
    std::vector<ShardSpec> shards,
    const std::function<void(ShardResult, const std::string&)>& consume,
    FleetStats& stats, obs::MetricsSnapshot& worker_metrics) {
  // Every unit ever created gets a distinct id used as its shard_index;
  // splitting a unit of n cells creates n single-cell units and single-cell
  // units never split, so initial_units + planned_cells bounds the id
  // space. sweep_id, not shard_count, proves the documents belong together.
  size_t planned_cells = 0;
  for (const ShardSpec& shard : shards) {
    planned_cells += shard.cells.size();
  }
  const int id_bound =
      static_cast<int>(shards.size()) +
      static_cast<int>(std::min<size_t>(planned_cells, 1 << 20));

  std::map<size_t, std::string> cell_errors;
  std::set<size_t> planned;  // distinct grid indices, for the plan event
  std::vector<std::string> created_files;
  // Scratch files go on every exit path (including exceptions) unless the
  // caller asked to keep them for debugging.
  struct Cleanup {
    const std::vector<std::string>* files;
    bool keep;
    ~Cleanup() {
      if (!keep) {
        for (const std::string& path : *files) {
          std::remove(path.c_str());
        }
      }
    }
  } cleanup{&created_files, opt.keep_files};
  // Units are appended while iterating (splits), so store stable pointers.
  std::vector<std::unique_ptr<Unit>> units;

  // Fleet execution metrics (telemetry only; registered once, recorded
  // lock-free at attempt granularity).
  static obs::Counter& m_attempts =
      obs::Registry::Global().counter("fleet.attempts");
  static obs::Counter& m_succeeded =
      obs::Registry::Global().counter("fleet.succeeded");
  static obs::Counter& m_timeouts =
      obs::Registry::Global().counter("fleet.timeouts");
  static obs::Counter& m_sigkills =
      obs::Registry::Global().counter("fleet.sigkills");
  static obs::Counter& m_splits =
      obs::Registry::Global().counter("fleet.splits");
  static obs::Counter& m_checksum_rejects =
      obs::Registry::Global().counter("fleet.checksum_rejects");
  static obs::Counter& m_backoff_ns =
      obs::Registry::Global().counter("fleet.backoff_ns");
  static obs::Counter& m_wakeups =
      obs::Registry::Global().counter("fleet.wakeups");
  static obs::Histogram& m_attempt_wall =
      obs::Registry::Global().histogram("fleet.attempt_wall_ns");
  static obs::Histogram& m_spawn_ns =
      obs::Registry::Global().histogram("fleet.spawn_ns");
  static obs::Histogram& m_harvest_ns =
      obs::Registry::Global().histogram("fleet.harvest_ns");
  // Phase timers (fleet.spawn_ns, fleet.harvest_ns): the clock is read only
  // while telemetry is on.
  const auto now_ns = [] { return obs::Enabled() ? obs::MonotonicNanos() : 0; };
  const auto record_since = [](obs::Histogram& histogram, int64_t start_ns) {
    if (obs::Enabled()) {
      histogram.Record(obs::MonotonicNanos() - start_ns);
    }
  };

  if (opt.journal != nullptr) {
    opt.journal->SetTraceId(sweep_id);
  }
  const auto emit = [&](obs::TraceEvent event, const char* fmt, auto... args) {
    EmitFleet(opt, sweep_id, std::move(event), fmt, args...);
  };

  const auto make_unit = [&](ShardSpec shard) -> Unit& {
    const int id = static_cast<int>(units.size());
    units.push_back(std::make_unique<Unit>());
    Unit& unit = *units.back();
    unit.id = id;
    unit.spec = std::move(shard);
    unit.spec.shard_index = id;
    unit.spec.shard_count = id_bound;
    unit.spec_path =
        opt.temp_dir + "/" + file_tag + "unit" + std::to_string(id) + ".shard.json";
    if (!WriteFile(unit.spec_path, unit.spec.ToJson())) {
      throw FleetError("fleet: cannot write shard document " + unit.spec_path);
    }
    created_files.push_back(unit.spec_path);
    for (const SweepSpec::Cell& cell : unit.spec.cells) {
      planned.insert(cell.index);
    }
    return unit;
  };

  for (ShardSpec& shard : shards) {
    make_unit(std::move(shard));
  }
  shards.clear();
  emit(obs::TraceEvent("fleet_plan")
           .Int("units", static_cast<int64_t>(units.size()))
           .Int("cells", static_cast<int64_t>(planned.size())),
       "planned %zu units over %zu cells", units.size(), planned.size());

  // A failed attempt: retry with backoff while budget remains; then split a
  // multi-cell unit into per-cell units with fresh budgets (poison-cell
  // isolation); then declare the cells lost. `kind` is the stable failure
  // category (crashed/timed_out/corrupt/malformed/no_output) keyed
  // into the trace events and the per-reason retry counters; `reason` is the
  // human detail.
  const auto fail = [&](Unit& unit, const char* kind,
                        const std::string& reason) {
    unit.last_error = reason;
    m_attempt_wall.Record(static_cast<int64_t>(
        (MonotonicSeconds() - unit.started_at) * 1e9));
    if (unit.attempt <= opt.max_retries) {
      const double delay = JitteredDelay(opt, unit.id, unit.attempt);
      unit.state = Unit::State::kBackoff;
      unit.ready_at = MonotonicSeconds() + delay;
      ++stats.retries;
      if (obs::Enabled()) {
        obs::Registry::Global()
            .counter(std::string("fleet.retries.") + kind)
            .Add(1);
        m_backoff_ns.Add(static_cast<int64_t>(delay * 1e9));
      }
      emit(obs::TraceEvent("unit_backoff")
               .Int("unit", unit.id)
               .Int("attempt", unit.attempt)
               .Str("kind", kind)
               .Str("reason", reason)
               .Dbl("backoff_s", delay),
           "unit %d attempt %d/%d failed: %s; retrying in %.2fs", unit.id,
           unit.attempt, 1 + opt.max_retries, reason.c_str(), delay);
      return;
    }
    if (unit.spec.cells.size() > 1) {
      unit.state = Unit::State::kSplit;
      ++stats.splits;
      m_splits.Add(1);
      emit(obs::TraceEvent("unit_split")
               .Int("unit", unit.id)
               .Int("attempt", unit.attempt)
               .Str("kind", kind)
               .Str("reason", reason)
               .Int("cells", static_cast<int64_t>(unit.spec.cells.size())),
           "unit %d exhausted its %d attempts (%s); splitting %zu cells into "
           "single-cell units",
           unit.id, 1 + opt.max_retries, reason.c_str(), unit.spec.cells.size());
      ShardSpec base = unit.spec;
      std::vector<SweepSpec::Cell> cells = std::move(base.cells);
      std::vector<ShardCellRange> ranges = std::move(base.ranges);
      base.cells.clear();
      base.ranges.clear();
      for (size_t c = 0; c < cells.size(); ++c) {
        // Each cell keeps its trial range: the single-cell unit recomputes
        // exactly the trials the original owed.
        ShardSpec single = base;
        single.cells.push_back(std::move(cells[c]));
        single.ranges.push_back(ranges[c]);
        make_unit(std::move(single));
      }
      return;
    }
    unit.state = Unit::State::kLost;
    for (const SweepSpec::Cell& cell : unit.spec.cells) {
      cell_errors[cell.index] = reason + " after " + std::to_string(unit.attempt) +
                                " attempts";
    }
    emit(obs::TraceEvent("unit_lost")
             .Int("unit", unit.id)
             .Int("attempt", unit.attempt)
             .Str("kind", kind)
             .Str("reason", reason)
             .Int("cells", static_cast<int64_t>(unit.spec.cells.size())),
         "unit %d lost after %d attempts: %s (%zu cells)", unit.id,
         unit.attempt, reason.c_str(), unit.spec.cells.size());
  };

  // Starts the unit's next attempt.
  const auto spawn = [&](Unit& unit) {
    ++unit.attempt;
    ++stats.spawned;
    m_attempts.Add(1);
    // The worker reads its shard from the file and answers on stdout: the
    // result document on the first line, its telemetry snapshot after it.
    // Its stderr is the supervisor's, so its diagnostics appear beside the
    // retry lines.
    std::vector<std::string> argv = {opt.worker_path, "--shard=" + unit.spec_path,
                                     "--metrics-out=-"};
    if (opt.worker_threads > 0) {
      argv.push_back("--threads=" + std::to_string(opt.worker_threads));
    }
    if (!opt.fail_mode.empty()) {
      char prob[64];
      std::snprintf(prob, sizeof(prob), "%.17g", opt.fail_prob);
      argv.push_back("--fail-mode=" + opt.fail_mode);
      argv.push_back("--fail-prob=" + std::string(prob));
      argv.push_back("--fail-seed=" + std::to_string(opt.fail_seed));
      // Fresh fault draw per attempt; without this a deterministic failure
      // would repeat verbatim on every retry.
      argv.push_back("--fail-nonce=" + std::to_string(unit.attempt));
    }
    unit.started_at = MonotonicSeconds();
    const int64_t spawn_start = now_ns();
    if (obs::Enabled()) {
      // The worker times its start-up (worker.startup_ns) from this stamp.
      argv.push_back("--spawn-ns=" + std::to_string(spawn_start));
    }
    try {
      unit.child = Subprocess::Spawn(argv, /*log_path=*/"");
    } catch (const SpawnError& e) {
      if (e.step() == SpawnError::Step::kExec) {
        // The worker binary never ran. Retrying (or splitting) cannot fix a
        // bad --worker path, and burning the whole backoff budget per unit
        // turns a typo into minutes of silence — fail the fleet immediately
        // with the path that was attempted.
        throw FleetError("fleet: worker binary '" + opt.worker_path +
                         "' could not be executed (" +
                         std::strerror(e.error_number()) +
                         " — missing or non-executable --worker path?)");
      }
      // A pipe or spawn failure, typically EMFILE, EAGAIN or ENOMEM: out of
      // descriptors, processes or memory. The fleet stops too, saying which
      // step failed and why, with no hint about the --worker path.
      throw FleetError(std::string("fleet: ") + e.what());
    }
    record_since(m_spawn_ns, spawn_start);
    unit.state = Unit::State::kRunning;
    emit(obs::TraceEvent("unit_spawn")
             .Int("unit", unit.id)
             .Int("attempt", unit.attempt)
             .Int("pid", static_cast<int>(unit.child.pid()))
             .Int("cells", static_cast<int64_t>(unit.spec.cells.size())),
         "unit %d attempt %d/%d: spawned pid %d (%zu cells)", unit.id,
         unit.attempt, 1 + opt.max_retries, static_cast<int>(unit.child.pid()),
         unit.spec.cells.size());
  };

  // A clean exit: the captured stdout's first line is the result document,
  // which must verify (envelope length + FNV-1a) and parse strictly before
  // it may merge; the rest is the worker's telemetry snapshot. Failures at
  // this stage are transport faults — retryable — not merge faults.
  // `reaped_at` is now_ns() from before the Poll that saw the exit, so the
  // harvest time covers the final drain.
  const auto harvest = [&](Unit& unit, int64_t reaped_at) {
    const std::string& captured = unit.child.output();
    const std::string_view text(captured);
    const size_t newline = std::min(text.find('\n'), text.size());
    const std::string source = file_tag + "unit" + std::to_string(unit.id) +
                               ".attempt" + std::to_string(unit.attempt) +
                               " stdout";
    const char* kind = nullptr;
    std::string reason;
    ShardResult result;
    if (text.empty()) {
      ++stats.malformed;
      kind = "no_output";
      reason = "exited cleanly but wrote no result document";
    } else {
      try {
        result = ShardResult::FromJson(text.substr(0, newline), source);
      } catch (const json::IntegrityError& e) {
        ++stats.corrupt;
        m_checksum_rejects.Add(1);
        kind = "corrupt";
        reason = std::string("corrupt result document: ") + e.what();
      } catch (const std::exception& e) {
        ++stats.malformed;
        kind = "malformed";
        reason = std::string("unreadable result document: ") + e.what();
      }
    }
    if (kind == nullptr) {
      // Verified bytes that fail to consume (merge inconsistency, wrong
      // sweep, duplicate cells) mean a worker/driver bug, which a retry
      // cannot fix; the callback throws FleetError and the fleet stops.
      consume(std::move(result), source);
      // Fold the worker's own telemetry into the fleet view. Best effort by
      // design: the result document is the contract, the snapshot is
      // observability — a worker built or run with telemetry off writes
      // nothing (or zeros), and that must not fail the unit.
      if (newline < text.size()) {
        try {
          worker_metrics.MergeFrom(
              obs::MetricsSnapshot::FromJson(text.substr(newline + 1), source));
        } catch (const std::exception&) {
          // Unreadable snapshot: keep the harvested result.
        }
      }
    }
    record_since(m_harvest_ns, reaped_at);
    if (kind != nullptr) {
      fail(unit, kind, reason);
      return;
    }
    unit.state = Unit::State::kDone;
    ++stats.succeeded;
    m_succeeded.Add(1);
    m_attempt_wall.Record(static_cast<int64_t>(
        (MonotonicSeconds() - unit.started_at) * 1e9));
    emit(obs::TraceEvent("unit_done")
             .Int("unit", unit.id)
             .Int("attempt", unit.attempt)
             .Int("cells", static_cast<int64_t>(unit.spec.cells.size())),
         "unit %d done after %d attempt%s (%zu cells merged)", unit.id,
         unit.attempt, unit.attempt == 1 ? "" : "s", unit.spec.cells.size());
  };

  // Single-threaded supervision loop; subprocesses provide the only real
  // concurrency, which keeps every state transition trivially race-free.
  // Each pass drains every running child's stdout and acts on every exit and
  // deadline due, then sleeps until a running child exits or writes, or the
  // nearest deadline passes.
  size_t open_units = units.size();
  while (open_units > 0) {
    m_wakeups.Add(1);
    int running = 0;
    for (size_t i = 0; i < units.size(); ++i) {
      Unit& unit = *units[i];
      if (unit.state == Unit::State::kRunning) {
        const int64_t poll_start = now_ns();
        if (unit.child.Poll()) {
          if (unit.child.exited_cleanly()) {
            harvest(unit, poll_start);
          } else {
            ++stats.crashed;
            fail(unit, "crashed", "worker died: " + unit.child.DescribeExit());
          }
        } else if (opt.timeout_seconds > 0.0 &&
                   MonotonicSeconds() - unit.started_at > opt.timeout_seconds) {
          unit.child.Kill();
          unit.child.Await();
          ++stats.timed_out;
          m_timeouts.Add(1);
          m_sigkills.Add(1);
          char reason[96];
          std::snprintf(reason, sizeof(reason),
                        "timed out after %.1fs; sent SIGKILL", opt.timeout_seconds);
          fail(unit, "timed_out", reason);
        }
      }
      if (unit.state == Unit::State::kBackoff &&
          MonotonicSeconds() >= unit.ready_at) {
        unit.state = Unit::State::kReady;
      }
      if (unit.state == Unit::State::kRunning) {
        ++running;
      }
    }
    for (size_t i = 0; i < units.size() && running < opt.max_parallel; ++i) {
      Unit& unit = *units[i];
      if (unit.state == Unit::State::kReady) {
        spawn(unit);
        ++running;
      }
    }
    open_units = 0;
    std::vector<const Subprocess*> children;
    double next_deadline = std::numeric_limits<double>::infinity();
    for (const auto& unit : units) {
      if (!UnitFinished(*unit)) {
        ++open_units;
      }
      if (unit->state == Unit::State::kRunning) {
        children.push_back(&unit->child);
        if (opt.timeout_seconds > 0.0) {
          next_deadline = std::min(next_deadline,
                                   unit->started_at + opt.timeout_seconds);
        }
      } else if (unit->state == Unit::State::kBackoff) {
        next_deadline = std::min(next_deadline, unit->ready_at);
      }
    }
    if (open_units > 0) {
      Subprocess::WaitAny(children, next_deadline - MonotonicSeconds());
    }
  }

  // Subprocess destructors have reaped everything.
  return cell_errors;
}

// "N of M cells lost after retries were exhausted:" plus the first few
// cells' reasons — the shared failure summary for complete-required runs
// and partial reports.
std::string DescribeLost(const std::vector<FleetLostCell>& lost,
                         size_t total_cells) {
  std::string summary = std::to_string(lost.size()) + " of " +
                        std::to_string(total_cells) +
                        " cells lost after retries were exhausted:";
  for (size_t i = 0; i < lost.size() && i < 8; ++i) {
    summary += "\n  cell " + std::to_string(lost[i].index) + " \"" +
               lost[i].label + "\": " + lost[i].reason;
  }
  if (lost.size() > 8) {
    summary += "\n  ... and " + std::to_string(lost.size() - 8) + " more";
  }
  return summary;
}

}  // namespace

FleetSupervisor::FleetSupervisor(FleetOptions options) : options_(std::move(options)) {}

FleetReport FleetSupervisor::Run(const SweepSpec& spec,
                                 const SweepOptions& sweep_options) const {
  return Run(spec.AxisNames(), sweep_options, spec.BuildCells());
}

FleetReport FleetSupervisor::Run(std::vector<std::string> axis_names,
                                 const SweepOptions& sweep_options,
                                 std::vector<SweepSpec::Cell> cells,
                                 std::vector<SweepCellExecution> prior) const {
  const FleetOptions& opt = options_;
  ValidateFleetOptions(opt);

  // A one-shard plan validates options and cells with SweepRunner::Run's
  // messages and stamps the sweep identity; its header fields head every
  // round's spec.
  ShardSpec header =
      ShardPlan(std::move(axis_names), sweep_options, std::move(cells), 1)
          .shards()
          .front();
  cells = std::move(header.cells);
  header.cells.clear();
  header.ranges.clear();
  // Workers run fixed trial ranges: the adaptive loop stays here, and
  // mc.trials only bounds the ranges a round may hand out.
  header.options.adaptive = false;
  if (sweep_options.adaptive) {
    header.options.mc.trials = sweep_options.max_trials;
  }
  const uint64_t sweep_id = header.sweep_id;

  // SweepRunner::Run's round loop, each round run by the fleet: partitioned
  // by PartitionShardRound, supervised to verified results, and merged by
  // ShardMerger onto the cells' states before the round.
  FleetReport report;
  std::vector<FleetLostCell> lost;
  int rounds = 0;
  const auto run_round = [&](const std::vector<CellTrialRange>& ranges,
                             std::vector<SweepCellExecution>& executions) {
    ++rounds;
    ShardSpec round = header;
    std::map<size_t, size_t> position;  // grid index -> range
    for (size_t j = 0; j < ranges.size(); ++j) {
      round.cells.push_back(*ranges[j].cell);
      round.ranges.push_back(ShardCellRange{ranges[j].begin, ranges[j].end});
      position[ranges[j].cell->index] = j;
    }
    std::vector<ShardSpec> shards = PartitionShardRound(round, opt.shard_count);
    ShardMerger merger(shards, std::move(executions));
    shards.erase(std::remove_if(shards.begin(), shards.end(),
                                [](const ShardSpec& shard) {
                                  return shard.cells.empty();
                                }),
                 shards.end());
    const auto consume = [&merger](ShardResult result, const std::string& source) {
      try {
        merger.Add(std::move(result), source);
      } catch (const std::invalid_argument& e) {
        throw FleetError(std::string("fleet: merge failed: ") + e.what());
      }
    };
    const std::map<size_t, std::string> cell_errors = SuperviseUnits(
        opt, sweep_id, rounds == 1 ? "" : "r" + std::to_string(rounds) + ".",
        std::move(shards), consume, report.stats, report.worker_metrics);

    // Merged cells take their new state; cells whose units were lost leave
    // the sweep.
    executions.assign(ranges.size(), SweepCellExecution());
    std::vector<bool> ran(ranges.size(), false);
    for (SweepCellExecution& merged : merger.TakeExecutions()) {
      const size_t j = position.at(merged.index);
      executions[j] = std::move(merged);
      ran[j] = true;
    }
    for (size_t j = 0; j < ranges.size(); ++j) {
      if (!ran[j]) {
        const size_t index = ranges[j].cell->index;
        const auto error = cell_errors.find(index);
        lost.push_back(FleetLostCell{
            index, ranges[j].cell->label,
            error != cell_errors.end() ? error->second : "never attempted"});
      }
    }
    if (!lost.empty() && !opt.partial_ok) {
      throw FleetError("fleet: " + DescribeLost(lost, cells.size()));
    }
    return ran;
  };
  std::vector<SweepCellExecution> executions =
      RunSweepRounds(cells, sweep_options, std::move(prior), run_round);

  const FleetStats& stats = report.stats;
  if (lost.empty()) {
    EmitFleet(opt, sweep_id,
              obs::TraceEvent("fleet_done")
                  .Int("spawned", stats.spawned)
                  .Int("succeeded", stats.succeeded)
                  .Int("retries", stats.retries)
                  .Int("splits", stats.splits)
                  .Int("rounds", rounds),
              "complete: %d spawned, %d succeeded, %d retries, %d splits, "
              "%d rounds",
              stats.spawned, stats.succeeded, stats.retries, stats.splits, rounds);
    report.result = FinalizeSweepCells(executions, header.axis_names,
                                       sweep_options.estimand,
                                       sweep_options.mc.confidence);
    report.executions = std::move(executions);
    return report;
  }

  // partial_ok only; without it the round executor threw at the first loss.
  const std::string summary = DescribeLost(lost, cells.size());
  if (executions.empty()) {
    throw FleetError("fleet: every attempt failed; no cells to finalize (" +
                     summary + ")");
  }
  EmitFleet(opt, sweep_id,
            obs::TraceEvent("fleet_partial")
                .Int("lost", static_cast<int64_t>(lost.size()))
                .Int("cells", static_cast<int64_t>(cells.size())),
            "partial result: %s", summary.c_str());
  report.result = FinalizeSweepCells(std::move(executions), header.axis_names,
                                     sweep_options.estimand,
                                     sweep_options.mc.confidence);
  report.complete = false;
  report.lost = std::move(lost);
  return report;
}

}  // namespace longstore
