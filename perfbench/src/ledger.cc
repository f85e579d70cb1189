#include "perfbench/src/ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.h"
#include "src/service/service_protocol.h"
#include "src/storage/replicated_system.h"
#include "src/util/json.h"

namespace perfbench {

using longstore::ServiceRequest;
using longstore::ServiceResponse;
using longstore::ShardSpec;
using longstore::SweepCellExecution;
using longstore::SweepOptions;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Ledger ------------------------------------------------------------------

void Ledger::Clear() {
  spans_.clear();
  open_ = -1;
}

Ledger::Scope::Scope(Ledger* ledger, const char* name) : ledger_(ledger) {
  if (ledger_ == nullptr) {
    return;
  }
  Span span;
  span.name = name;
  span.query = ledger_->query_;
  span.parent = ledger_->open_;
  index_ = static_cast<int32_t>(ledger_->spans_.size());
  ledger_->spans_.push_back(span);
  ledger_->open_ = index_;
  // Read the clock last, so the bookkeeping above is not charged to the span.
  ledger_->spans_[index_].start_ns = NowNanos();
}

Ledger::Scope::~Scope() {
  if (ledger_ == nullptr) {
    return;
  }
  const int64_t end = NowNanos();
  Span& span = ledger_->spans_[index_];
  span.end_ns = end;
  ledger_->open_ = span.parent;
}

std::map<std::string, Ledger::LayerTime> Ledger::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTime> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    LayerTime& layer = totals[spans_[i].name];
    layer.inclusive_ns += duration;
    layer.self_ns += duration - child_ns[i];
    layer.spans++;
  }
  return totals;
}

bool Ledger::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  std::string line;
  bool ok = true;
  for (const Span& span : spans_) {
    line = "{\"name\":";
    longstore::json::AppendEscaped(line, span.name);
    line += ",\"query\":";
    longstore::json::AppendInt64(line, span.query);
    line += ",\"parent\":";
    longstore::json::AppendInt64(line, span.parent);
    line += ",\"start_ns\":";
    longstore::json::AppendInt64(line, span.start_ns);
    line += ",\"end_ns\":";
    longstore::json::AppendInt64(line, span.end_ns);
    line += "}\n";
    ok = ok && std::fwrite(line.data(), 1, line.size(), file) == line.size();
  }
  return std::fclose(file) == 0 && ok;
}

// --- counts ------------------------------------------------------------------

int64_t LaneBusyNanos() {
  static longstore::obs::Histogram& busy =
      longstore::obs::Registry::Global().histogram("sweep.cell_wall_ns");
  return busy.sum();
}

namespace {

// Events the storage engine processed: faults, detections, repairs and
// common-mode events.
int64_t EngineEvents(const longstore::SimMetrics& metrics) {
  return metrics.visible_faults + metrics.latent_faults +
         metrics.latent_detections + metrics.repairs_completed +
         metrics.common_mode_events;
}

void CountExecutions(const std::vector<SweepCellExecution>& executions,
                     LayerCounts* counts) {
  for (const SweepCellExecution& cell : executions) {
    counts->cells++;
    counts->rounds += cell.rounds;
    counts->trials += cell.trials;
    counts->events += EngineEvents(cell.acc.metrics);
  }
}

int64_t TotalTrials(const std::vector<SweepCellExecution>& executions) {
  int64_t total = 0;
  for (const SweepCellExecution& cell : executions) {
    total += cell.trials;
  }
  return total;
}

ServiceResponse ErrorResponse(bool retryable, std::string message) {
  ServiceResponse response;
  response.ok = false;
  response.retryable = retryable;
  response.message = std::move(message);
  return response;
}

// The trial horizon the sweep engine uses for the estimand.
longstore::Duration SweepHorizon(const SweepOptions& options) {
  switch (options.estimand) {
    case SweepOptions::Estimand::kMttdl:
      return options.mc.max_trial_time;
    case SweepOptions::Estimand::kCensoredMttdl:
      return options.window;
    default:
      return options.mission;
  }
}

}  // namespace

// --- ServiceReplay -----------------------------------------------------------

ServiceReplay::ServiceReplay(longstore::WorkerPool* pool,
                             std::optional<longstore::FleetOptions> fleet,
                             Ledger* ledger, LayerCounts* counts)
    : pool_(pool), fleet_(std::move(fleet)), ledger_(ledger), counts_(counts) {
  if (fleet_) {
    fleet_->partial_ok = false;
  }
}

std::string ServiceReplay::Handle(std::string_view request_bytes) {
  Ledger::Scope span(ledger_, "service");
  ServiceResponse response;
  try {
    const ServiceRequest request = ServiceRequest::FromJson(request_bytes);
    if (request.kind != ServiceRequest::Kind::kSweep) {
      throw std::invalid_argument("replay: only sweep requests are replayed");
    }
    response = HandleSweep(request.sweep_document);
  } catch (const longstore::json::IntegrityError& e) {
    response = ErrorResponse(/*retryable=*/true, e.what());
  } catch (const std::exception& e) {
    response = ErrorResponse(/*retryable=*/false, e.what());
  }
  return response.ToJson();
}

ServiceResponse ServiceReplay::HandleSweep(const std::string& sweep_document) {
  counts_->request_bytes += static_cast<int64_t>(sweep_document.size());
  std::optional<ShardSpec> parsed;
  {
    Ledger::Scope span(ledger_, "shard.parse");
    parsed.emplace(ShardSpec::FromJson(sweep_document, "service request"));
  }
  ShardSpec& spec = *parsed;
  if (spec.shard_index != 0 || spec.shard_count != 1 ||
      spec.total_cells != spec.cells.size()) {
    throw std::invalid_argument(
        "replay: the sweep document must be the whole sweep (shard 0 of 1)");
  }
  longstore::ValidateSweepOptions(spec.options);
  longstore::ValidateSweepCells(spec.cells);
  const uint64_t sweep_id =
      longstore::ComputeSweepId(spec.axis_names, spec.options, spec.cells);
  if (spec.sweep_id != 0 && spec.sweep_id != sweep_id) {
    throw std::invalid_argument("replay: document sweep_id does not match");
  }
  uint64_t resume_key = 0;
  if (spec.options.adaptive) {
    SweepOptions pinned = spec.options;
    pinned.relative_precision = 0.0;
    resume_key = longstore::ComputeSweepId(spec.axis_names, pinned, spec.cells);
  }

  ServiceResponse response;
  response.ok = true;
  response.sweep_id = sweep_id;
  counts_->cache_lookups++;
  const longstore::SweepCacheLookup lookup =
      cache_.Lookup(sweep_id, resume_key, spec.options.relative_precision);
  if (lookup.kind == longstore::SweepCacheLookup::Kind::kExactHit) {
    counts_->cache_exact_hits++;
    response.source = "cache";
    response.result_json = lookup.entry->result_json;
    return response;
  }
  if (lookup.kind == longstore::SweepCacheLookup::Kind::kResumeHit) {
    // No workload issues a tighter re-query of a stored sweep.
    throw std::logic_error("replay: unexpected adaptive resume hit");
  }

  longstore::CachedSweep entry;
  entry.sweep_id = sweep_id;
  entry.resume_key = resume_key;
  entry.relative_precision = spec.options.relative_precision;
  if (fleet_) {
    longstore::FleetReport report;
    {
      Ledger::Scope span(ledger_, "fleet.run");
      report = longstore::FleetSupervisor(*fleet_).Run(
          spec.axis_names, spec.options, std::move(spec.cells));
    }
    counts_->fleet_runs++;
    counts_->fleet_attempts += report.stats.spawned;
    if (const auto it = report.worker_metrics.histograms.find("sweep.cell_wall_ns");
        it != report.worker_metrics.histograms.end()) {
      counts_->worker_busy_ns += it->second.sum;
      counts_->lane_busy_ns += it->second.sum;
    }
    entry.executions = std::move(report.executions);
  } else {
    const int64_t busy_before = LaneBusyNanos();
    const int64_t wall_before = NowNanos();
    {
      Ledger::Scope span(ledger_, "sweep.run");
      entry.executions =
          longstore::RunSweepCells(*pool_, std::move(spec.cells), spec.options);
    }
    const int64_t busy = LaneBusyNanos() - busy_before;
    counts_->sweep_wall_ns += NowNanos() - wall_before;
    counts_->sweep_busy_ns += busy;
    counts_->lane_busy_ns += busy;
  }
  CountExecutions(entry.executions, counts_);
  response.source = "computed";
  response.new_trials = TotalTrials(entry.executions);
  entry.total_trials = response.new_trials;
  {
    Ledger::Scope span(ledger_, "sweep.finalize");
    entry.result_json =
        longstore::FinalizeSweepCells(entry.executions, spec.axis_names,
                                      spec.options.estimand,
                                      spec.options.mc.confidence)
            .ToJson();
  }
  response.result_json = entry.result_json;
  cache_.Insert(std::move(entry));
  return response;
}

// --- BytesEvalBackend --------------------------------------------------------

BytesEvalBackend::BytesEvalBackend(Handler handler, Ledger* ledger)
    : handler_(std::move(handler)), ledger_(ledger) {}

longstore::FrontierEvalBackend::Eval BytesEvalBackend::Evaluate(
    const std::string& sweep_document) {
  Ledger::Scope span(ledger_, "frontier.evaluate");
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document = sweep_document;
  ServiceResponse response =
      ServiceResponse::FromJson(handler_(request.ToJson()), "bench client");
  if (!response.ok) {
    throw std::runtime_error("frontier eval: service error: " +
                             response.message);
  }
  Eval eval;
  eval.source = std::move(response.source);
  eval.result_json = std::move(response.result_json);
  eval.new_trials = response.new_trials;
  return eval;
}

// --- prefilter ---------------------------------------------------------------

int64_t PrefilterSkippedTrials(const ShardSpec& spec) {
  const SweepOptions& options = spec.options;
  if (options.seed_mode != SweepOptions::SeedMode::kCounterV1) {
    return 0;
  }
  const longstore::Duration horizon = SweepHorizon(options);
  int64_t skipped = 0;
  for (const longstore::SweepSpec::Cell& cell : spec.cells) {
    std::optional<longstore::TrialRunner> runner;
    if (options.estimand == SweepOptions::Estimand::kWeightedLossProbability) {
      runner.emplace(cell.scenario, longstore::ConfigValidation::kValidate,
                     options.bias);
    } else {
      runner.emplace(cell.scenario);
    }
    const uint64_t key = longstore::SweepCellSeed(options, cell);
    uint8_t skip[longstore::kTrialPrefilterMaxBlock];
    for (int64_t begin = 0; begin < options.mc.trials;
         begin += longstore::kTrialPrefilterMaxBlock) {
      const int count = static_cast<int>(std::min<int64_t>(
          longstore::kTrialPrefilterMaxBlock, options.mc.trials - begin));
      if (!runner->PrefilterCensoredBlock(key, begin, count, horizon, skip)) {
        continue;
      }
      for (int i = 0; i < count; ++i) {
        skipped += skip[i] != 0 ? 1 : 0;
      }
    }
  }
  return skipped;
}

}  // namespace perfbench
