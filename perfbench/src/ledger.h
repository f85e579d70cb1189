// The traced run's span ledger and the service replay it times.
//
// Spans are recorded by the benchmark around calls into each layer's public
// functions (nothing inside the program is instrumented): name, start, end,
// parent span and query id. They stay in memory and are written as JSONL
// when the run exits. A layer's self time is its span minus its children.
//
// ServiceReplay answers service request bytes through the same public calls
// SweepService::HandleRequestBytes makes, in the same order, with a span
// around each layer:
//   ServiceRequest::FromJson, ShardSpec::FromJson ("shard.parse"),
//   ValidateSweepOptions/ValidateSweepCells, ComputeSweepId,
//   SweepCache::Lookup/Insert, RunSweepCells ("sweep.run") or
//   FleetSupervisor::Run ("fleet.run"), FinalizeSweepCells + ToJson
//   ("sweep.finalize"); the enclosing "service" span's self time is
//   everything else the service does.

#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/frontier/eval_backend.h"
#include "src/service/sweep_cache.h"
#include "src/shard/shard.h"
#include "src/sweep/worker_pool.h"

namespace perfbench {

int64_t NowNanos();

struct Span {
  const char* name = "";  // static storage
  int64_t query = 0;
  int32_t parent = -1;    // index into the ledger's spans; -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Ledger {
 public:
  // Spans opened from now on belong to query `id`.
  void BeginQuery(int64_t id) { query_ = id; }
  void Clear();

  // Times one layer call: opened on construction (child of the innermost
  // open span), closed on destruction.
  class Scope {
   public:
    Scope(Ledger* ledger, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;  // null: untraced, records nothing
    int32_t index_ = -1;
  };

  struct LayerTime {
    int64_t inclusive_ns = 0;
    int64_t self_ns = 0;
    int64_t spans = 0;
  };
  // Inclusive and self time summed per span name over every recorded span.
  std::map<std::string, LayerTime> Totals() const;

  // One JSON object per line: name, query, parent, start_ns, end_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
  int64_t query_ = 0;
};

// What the traced layers did, summed over the queries replayed; every field
// is read from values the layers return (executions, FleetReport,
// SweepCacheStats) or from the obs registry.
struct LayerCounts {
  int64_t request_bytes = 0;   // embedded shard document bytes
  int64_t cache_lookups = 0;
  int64_t cache_exact_hits = 0;
  int64_t cells = 0;           // cells executed (cache misses only)
  int64_t rounds = 0;          // adaptive rounds, summed over those cells
  int64_t trials = 0;          // trials simulated
  int64_t events = 0;          // faults + detections + repairs + common-mode
  int64_t lane_busy_ns = 0;    // sweep.cell_wall_ns on the query path
  int64_t sweep_wall_ns = 0;   // in-process RunSweepCells wall time
  int64_t sweep_busy_ns = 0;   // lane busy time inside those calls
  int64_t fleet_runs = 0;
  int64_t fleet_attempts = 0;  // FleetStats::spawned
  int64_t worker_busy_ns = 0;  // the workers' sweep.cell_wall_ns
};

// Sum of the process-wide sweep.cell_wall_ns histogram (lane busy time).
int64_t LaneBusyNanos();

class ServiceReplay {
 public:
  // `fleet` non-null selects the fleet backend, as ServiceOptions::kFleet.
  // `pool`, `ledger` and `counts` must outlive the replay.
  ServiceReplay(longstore::WorkerPool* pool,
                std::optional<longstore::FleetOptions> fleet, Ledger* ledger,
                LayerCounts* counts);

  // Response bytes for `request_bytes`, as the service would answer them.
  // Errors become error responses, as in the service.
  std::string Handle(std::string_view request_bytes);

 private:
  longstore::ServiceResponse HandleSweep(const std::string& sweep_document);

  longstore::WorkerPool* pool_;
  std::optional<longstore::FleetOptions> fleet_;
  Ledger* ledger_;
  LayerCounts* counts_;
  longstore::SweepCache cache_{64};
};

// A frontier evaluation backend that sends each sweep document as service
// request bytes to `handler` and decodes the response, like the socket
// backend minus the socket. With a ledger, each Evaluate is a
// "frontier.evaluate" span (a child of the search span).
class BytesEvalBackend : public longstore::FrontierEvalBackend {
 public:
  using Handler = std::function<std::string(std::string_view)>;
  BytesEvalBackend(Handler handler, Ledger* ledger);
  Eval Evaluate(const std::string& sweep_document) override;

 private:
  Handler handler_;
  Ledger* ledger_;
};

// Trials the counter-mode block prefilter proves censored, summed over the
// cells of `spec` (0 unless the sweep runs under SeedMode::kCounterV1),
// counted by calling TrialRunner::PrefilterCensoredBlock on the same
// 256-trial blocks the sweep engine executes.
int64_t PrefilterSkippedTrials(const longstore::ShardSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
