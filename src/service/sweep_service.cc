#include "src/service/sweep_service.h"

#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/shard/shard.h"
#include "src/util/json.h"

namespace longstore {
namespace {

ServiceResponse ErrorResponse(bool retryable, std::string message) {
  ServiceResponse response;
  response.ok = false;
  response.retryable = retryable;
  response.message = std::move(message);
  return response;
}

}  // namespace

ShardSpec ParseSweepRequest(std::string_view sweep_document,
                            const std::string& source) {
  ShardSpec spec = ShardSpec::FromJson(sweep_document, source);
  if (spec.shard_index != 0 || spec.shard_count != 1) {
    throw std::invalid_argument(
        source + ": the sweep document must be the whole sweep "
        "(shard 0 of 1), got shard " + std::to_string(spec.shard_index) +
        " of " + std::to_string(spec.shard_count));
  }
  if (spec.total_cells != spec.cells.size()) {
    throw std::invalid_argument(
        source + ": total_cells " + std::to_string(spec.total_cells) +
        " does not match the " + std::to_string(spec.cells.size()) +
        " cells present");
  }
  for (size_t i = 0; i < spec.cells.size(); ++i) {
    if (spec.ranges[i].begin != 0 || spec.ranges[i].end != spec.options.mc.trials) {
      throw std::invalid_argument(
          source + ": cell " + std::to_string(spec.cells[i].index) +
          " runs trials [" + std::to_string(spec.ranges[i].begin) + ", " +
          std::to_string(spec.ranges[i].end) +
          "); a sweep request runs every cell whole, [0, mc.trials)");
    }
  }
  ValidateSweepOptions(spec.options);
  ValidateSweepCells(spec.cells);

  const uint64_t sweep_id =
      ComputeSweepId(spec.axis_names, spec.options, spec.cells);
  if (spec.sweep_id != 0 && spec.sweep_id != sweep_id) {
    throw std::invalid_argument(
        source + ": document sweep_id does not match its own content "
        "(stale or hand-edited document?)");
  }
  spec.sweep_id = sweep_id;
  return spec;
}

SweepService::SweepService(ServiceOptions options)
    : options_(std::move(options)),
      pool_(options_.pool != nullptr ? *options_.pool : WorkerPool::Shared()),
      cache_(options_.cache_capacity) {
  // An incomplete answer must never be cached or served as a figure; the
  // service downgrades fleet partial runs to retryable errors instead.
  options_.fleet.partial_ok = false;
}

std::string SweepService::HandleRequestBytes(std::string_view request_bytes,
                                             const std::string& source) {
  ServiceRequest request;
  std::string response_bytes;
  try {
    request = ServiceRequest::FromJson(request_bytes, source);
    response_bytes = Handle(request).ToJson();
  } catch (const json::IntegrityError& e) {
    response_bytes = ErrorResponse(/*retryable=*/true, e.what()).ToJson();
  } catch (const std::exception& e) {
    response_bytes = ErrorResponse(/*retryable=*/false, e.what()).ToJson();
  }
  if (obs::Enabled()) {
    static obs::Histogram& h_in =
        obs::Registry::Global().histogram("service.frame_bytes_in");
    static obs::Histogram& h_out =
        obs::Registry::Global().histogram("service.frame_bytes_out");
    h_in.Record(static_cast<int64_t>(request_bytes.size()));
    h_out.Record(static_cast<int64_t>(response_bytes.size()));
  }
  return response_bytes;
}

ServiceResponse SweepService::Handle(const ServiceRequest& request) {
  const bool telemetry = obs::Enabled();
  const int64_t t0 = telemetry ? obs::MonotonicNanos() : 0;
  ServiceResponse response = Dispatch(request);
  if (telemetry) {
    const char* kind = ServiceRequestKindName(request.kind);
    const int64_t latency_ns = obs::MonotonicNanos() - t0;
    obs::Registry::Global()
        .histogram(std::string("service.latency_ns.") + kind)
        .Record(latency_ns);
    if (options_.journal != nullptr) {
      options_.journal->Emit(obs::TraceEvent("service_request")
                                 .Str("kind", kind)
                                 .Str("source", response.source)
                                 .Int("ok", response.ok ? 1 : 0)
                                 .Hex("sweep_id", response.sweep_id)
                                 .Int("new_trials", response.new_trials)
                                 .Int("latency_ns", latency_ns));
    }
  }
  return response;
}

ServiceResponse SweepService::Dispatch(const ServiceRequest& request) {
  ++requests_;
  switch (request.kind) {
    case ServiceRequest::Kind::kPing: {
      ServiceResponse response;
      response.ok = true;
      response.source = "pong";
      return response;
    }
    case ServiceRequest::Kind::kStats:
      return HandleStats();
    case ServiceRequest::Kind::kMetrics:
      return HandleMetrics();
    case ServiceRequest::Kind::kSweep:
      try {
        return HandleSweep(request);
      } catch (const json::IntegrityError& e) {
        // The embedded shard document failed its own envelope check: the
        // outer frame arrived intact, but the client serialized from
        // already-corrupted bytes — still worth a resend.
        return ErrorResponse(/*retryable=*/true, e.what());
      } catch (const std::exception& e) {
        return ErrorResponse(/*retryable=*/false, e.what());
      }
  }
  return ErrorResponse(/*retryable=*/false, "unknown request kind");
}

ServiceResponse SweepService::HandleSweep(const ServiceRequest& request) {
  ShardSpec spec = ParseSweepRequest(request.sweep_document, "service request");
  const uint64_t sweep_id = spec.sweep_id;
  // Entries sharing every field but relative_precision share this key.
  // Precision 0 is impossible on a real request (validation requires > 0),
  // so the pin can never collide with a genuine sweep_id input.
  uint64_t resume_key = 0;
  if (spec.options.adaptive) {
    SweepOptions pinned = spec.options;
    pinned.relative_precision = 0.0;
    resume_key = ComputeSweepId(spec.axis_names, pinned, spec.cells);
  }

  ServiceResponse response;
  response.ok = true;
  response.sweep_id = sweep_id;

  // One counted lookup: the cache itself classifies the request as exact
  // hit, near hit, or miss (and keeps the stats books — see SweepCache).
  const SweepCacheLookup lookup =
      cache_.Lookup(sweep_id, resume_key, spec.options.relative_precision);
  if (lookup.kind == SweepCacheLookup::Kind::kExactHit) {
    response.source = "cache";
    response.result_json = lookup.entry->result_json;
    return response;
  }

  // A near hit continues from the stored accumulators on whichever backend
  // is configured. Byte-identity with the cold run holds because trial
  // seeds and the round schedule are independent of where the stored run
  // stopped (RunSweepRounds' resume contract).
  const bool resume = lookup.kind == SweepCacheLookup::Kind::kResumeHit;
  std::vector<SweepCellExecution> prior;
  int64_t prior_trials = 0;
  if (resume) {
    prior = lookup.entry->executions;
    prior_trials = lookup.entry->total_trials;
  }
  response.source = resume ? "resumed" : "computed";

  CachedSweep entry;
  entry.sweep_id = sweep_id;
  entry.resume_key = resume_key;
  entry.relative_precision = spec.options.relative_precision;
  if (options_.backend == ServiceOptions::Backend::kFleet) {
    entry.executions = FleetSupervisor(options_.fleet)
                           .Run(spec.axis_names, spec.options,
                                std::move(spec.cells), std::move(prior))
                           .executions;
  } else {
    entry.executions = RunSweepCells(pool_, std::move(spec.cells), spec.options,
                                     std::move(prior));
  }
  const SweepResult result =
      FinalizeSweepCells(entry.executions, spec.axis_names,
                         spec.options.estimand, spec.options.mc.confidence);
  entry.total_trials = result.TotalTrials();
  entry.result_json = result.ToJson();
  response.new_trials = entry.total_trials - prior_trials;
  response.result_json = entry.result_json;
  cache_.Insert(std::move(entry));
  return response;
}

ServiceResponse SweepService::HandleStats() const {
  const SweepCacheStats& stats = cache_.stats();
  std::string body = "{\"requests\":";
  json::AppendInt64(body, requests_);
  body += ",\"cache_entries\":";
  json::AppendInt64(body, static_cast<int64_t>(cache_.size()));
  body += ",\"exact_hits\":";
  json::AppendInt64(body, stats.exact_hits);
  body += ",\"resume_hits\":";
  json::AppendInt64(body, stats.resume_hits);
  body += ",\"misses\":";
  json::AppendInt64(body, stats.misses);
  body += ",\"insertions\":";
  json::AppendInt64(body, stats.insertions);
  body += ",\"evictions\":";
  json::AppendInt64(body, stats.evictions);
  body += '}';

  ServiceResponse response;
  response.ok = true;
  response.source = "stats";
  response.result_json = std::move(body);
  return response;
}

ServiceResponse SweepService::HandleMetrics() const {
  ServiceResponse response;
  response.ok = true;
  response.source = "metrics";
  // The canonical MetricsSnapshot: process-wide, byte-stable given equal
  // counter values. With telemetry disabled the shape survives with zeros,
  // so clients can always parse it.
  response.result_json = obs::Registry::Global().SnapshotJson();
  return response;
}

}  // namespace longstore
