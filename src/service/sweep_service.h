// The resident sweep service: the request broker behind tools/sweep_serviced.
//
// A SweepService owns a SweepCache and an execution backend — the
// process-wide warm WorkerPool (threads stay up between requests, so a
// query pays zero pool spin-up) or a supervised sweep_worker fleet
// (src/fleet/) — and answers ServiceRequests:
//
//   * exact cache hit: the stored finalized bytes, zero simulation;
//   * near hit (adaptive request differing only in relative_precision from
//     a stored *looser* run): the configured backend continues from the
//     stored Welford accumulators (the `prior` of RunSweepCells or
//     FleetSupervisor::Run) — the resumed answer is byte-identical to a
//     cold run at the requested precision, while only the trials beyond
//     the stored run are simulated;
//   * miss: a cold run on the configured backend, then cached.
//
// Determinism contract: every answer — computed, cached, or resumed — is
// byte-identical to what a cold single-process SweepRunner::Run of the same
// document would finalize. The cache can therefore never change a figure,
// only the wall clock.
//
// HandleRequestBytes never throws: malformed envelopes, schema violations,
// invalid sweeps and fleet failures all become structured error responses,
// with `retryable` distinguishing transport corruption (send it again) from
// requests that can never succeed. The service is single-threaded by design
// (one request at a time, like the fleet supervisor's loop) — every cache
// transition is race-free by construction.

#ifndef LONGSTORE_SRC_SERVICE_SWEEP_SERVICE_H_
#define LONGSTORE_SRC_SERVICE_SWEEP_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/fleet/fleet.h"
#include "src/service/service_protocol.h"
#include "src/service/sweep_cache.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"

namespace longstore {

struct ServiceOptions {
  enum class Backend {
    kPool,   // RunSweepCells on the warm in-process pool
    kFleet,  // FleetSupervisor over sweep_worker subprocesses
  };

  Backend backend = Backend::kPool;
  // In-process pool for kPool runs; nullptr = WorkerPool::Shared(). Must
  // outlive the service.
  WorkerPool* pool = nullptr;
  // kFleet only. partial_ok is ignored: the service caches only complete
  // results, so an incomplete fleet run is answered as a retryable error.
  FleetOptions fleet;
  size_t cache_capacity = 64;
  // Structured trace journal for request lifecycles (one event per request:
  // kind, source, ok, latency). Telemetry only; nullptr or an unopened
  // journal records nothing. Not owned; must outlive the service.
  obs::TraceJournal* journal = nullptr;
};

// Parses a sweep request document (ServiceRequest::sweep_document) and
// checks it as every backend must before running it: the envelope and
// schema (ShardSpec::FromJson), the whole sweep (shard 0 of 1, total_cells
// equal to the cells present, every cell over [0, mc.trials)), options and
// cells (ValidateSweepOptions, ValidateSweepCells), and a stamped sweep_id
// against ComputeSweepId of the content. Returns the spec with sweep_id set
// to that identity. Throws json::IntegrityError for a corrupt envelope and
// std::invalid_argument for any other refusal; `source` prefixes every
// message.
ShardSpec ParseSweepRequest(std::string_view sweep_document,
                            const std::string& source);

class SweepService {
 public:
  explicit SweepService(ServiceOptions options);

  // The full wire round trip: parse one request document, execute it,
  // serialize the response. Never throws; `source` names the transport in
  // error messages (e.g. "socket peer").
  std::string HandleRequestBytes(std::string_view request_bytes,
                                 const std::string& source = "");

  // In-process entry point (tests, embedded use). Never throws.
  ServiceResponse Handle(const ServiceRequest& request);

  size_t cache_size() const { return cache_.size(); }
  const SweepCacheStats& cache_stats() const { return cache_.stats(); }

 private:
  // Handle minus the telemetry wrapper (latency histogram + journal event).
  ServiceResponse Dispatch(const ServiceRequest& request);
  ServiceResponse HandleSweep(const ServiceRequest& request);
  ServiceResponse HandleStats() const;
  ServiceResponse HandleMetrics() const;

  ServiceOptions options_;
  WorkerPool& pool_;
  SweepCache cache_;
  int64_t requests_ = 0;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_SERVICE_SWEEP_SERVICE_H_
