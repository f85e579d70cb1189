// perfbench: the repository benchmark program (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// One closed-loop client with one request in flight drives one workload
// through the public entry points SweepService::HandleRequestBytes and
// RunFrontierSearch, checks every answer, and prints the run's metrics as
// the last line of standard output:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics. --trace 1 interleaves each
// untraced query with a traced replay of the same query (ledger.h) and
// reports the per-layer metrics; a layer table goes to standard error and
// the spans to DIR.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/ledger.h"
#include "perfbench/src/workloads.h"
#include "src/frontier/eval_backend.h"
#include "src/frontier/frontier.h"
#include "src/obs/metrics.h"
#include "src/service/service_protocol.h"
#include "src/service/sweep_service.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/json.h"

namespace perfbench {
namespace {

using longstore::FrontierEvaluator;
using longstore::ServiceResponse;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
// query_p90_ms needs at least 10 samples beyond the 90th percentile.
constexpr int64_t kMinSamples = 100;
// Never let a slow host stretch a run past the three minutes it may take.
constexpr double kMaxLoopSeconds = 120.0;
// Every kCheckEvery-th query is re-computed on the reference path after the
// timed loop and its bytes compared.
constexpr int64_t kCheckEvery = 16;
// HostProbeMs on the reference host (a 4-vCPU 2.0 GHz Xeon VM with nothing
// else running); timed end-to-end metrics are scaled to it.
constexpr double kProbeReferenceMs = 1.0;

struct Args {
  Workload workload = Workload::kMttdlFigure;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mttdl_figure|archive_fleet|frontier_cold|"
               "frontier_warm --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               argv0);
  return 2;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return std::nullopt;
    }
    char* end = nullptr;
    if (key == "--workload") {
      const std::optional<Workload> workload = ParseWorkload(value);
      if (!workload) {
        return std::nullopt;
      }
      args.workload = *workload;
      have_workload = true;
    } else if (key == "--seed") {
      errno = 0;
      args.seed = std::strtoull(value.c_str(), &end, 0);
      if (value.empty() || *end != '\0' || errno != 0) {
        return std::nullopt;
      }
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > kMaxLoopSeconds) {
        return std::nullopt;
      }
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return std::nullopt;
      }
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return std::nullopt;
  }
  return args;
}

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// --- one query ---------------------------------------------------------------

// What a query's answer must say about where it came from.
enum class Expect { kComputed, kCached };

struct QueryResult {
  int64_t latency_ns = 0;
  bool ok = true;
  std::string failure;
  // Bytes compared against the reference path: the sweep result
  // (SweepResult::ToJson) or the frontier (FrontierResult::ToJson).
  std::string answer;
  int64_t new_trials = 0;
  FrontierEvaluator::Stats frontier;
};

void Fail(QueryResult* q, std::string why) {
  if (q->ok) {
    q->ok = false;
    q->failure = std::move(why);
  }
}

void CheckSweepResponse(const std::string& response_bytes, QueryResult* q) {
  try {
    const ServiceResponse response =
        ServiceResponse::FromJson(response_bytes, "bench client");
    if (!response.ok) {
      Fail(q, "service error: " + response.message);
      return;
    }
    // Every sweep query is cold.
    if (response.source != "computed") {
      Fail(q, "cold query answered '" + response.source + "'");
    }
    q->new_trials = response.new_trials;
    q->answer = response.result_json;
  } catch (const std::exception& e) {
    Fail(q, std::string("unreadable response: ") + e.what());
  }
}

// Sends one sweep request through `handler` and checks the response. Only
// the handler call is timed.
template <typename Handler>
QueryResult SweepQuery(Handler&& handler, const std::string& request) {
  QueryResult q;
  const int64_t t0 = NowNanos();
  const std::string response_bytes = handler(request);
  q.latency_ns = NowNanos() - t0;
  CheckSweepResponse(response_bytes, &q);
  return q;
}

struct FrontierProblem {
  longstore::FrontierTarget target = longstore::GoldenSmallTarget();
  longstore::FrontierSpace space = longstore::GoldenSmallSpace();
};

// One golden-small search with a fresh evaluator (so its memo serves
// nothing); only RunFrontierSearch is timed.
QueryResult FrontierQuery(const FrontierProblem& problem,
                          longstore::FrontierEvalBackend& backend,
                          uint64_t search_seed, Expect expect, Ledger* ledger) {
  QueryResult q;
  FrontierEvaluator evaluator(FrontierSearchOptions(search_seed), &backend);
  try {
    std::optional<longstore::FrontierResult> result;
    {
      Ledger::Scope span(ledger, "frontier.search");
      const int64_t t0 = NowNanos();
      result.emplace(
          longstore::RunFrontierSearch(problem.target, problem.space, evaluator));
      q.latency_ns = NowNanos() - t0;
    }
    q.answer = result->ToJson();
  } catch (const std::exception& e) {
    Fail(&q, e.what());
  }
  q.frontier = evaluator.stats();
  q.new_trials = q.frontier.simulated_trials;
  if (expect == Expect::kComputed && q.frontier.cache_served != 0) {
    Fail(&q, "cold search had cache-served evaluations");
  }
  if (expect == Expect::kCached &&
      (q.frontier.cache_served != q.frontier.simulated_evals ||
       q.frontier.simulated_trials != 0)) {
    Fail(&q, "warm search paid new trials");
  }
  return q;
}

// --- the system under test ---------------------------------------------------

// One set-up: an explicit kLanes pool, the service on it, and for frontier
// workloads the client backend that speaks service request bytes.
struct Stack {
  std::unique_ptr<longstore::WorkerPool> pool;
  std::unique_ptr<longstore::SweepService> service;
  std::unique_ptr<BytesEvalBackend> backend;
  std::string primed_answer;  // frontier_warm: the priming search's bytes
};

// Builds the stack and runs its untimed warm-up query (and, on
// frontier_warm, the priming search first). Throws on any failure.
Stack SetUp(const Args& args, const FrontierProblem& problem,
            const std::string& fleet_dir) {
  Stack stack;
  stack.pool = std::make_unique<longstore::WorkerPool>(kLanes);
  longstore::ServiceOptions options;
  options.pool = stack.pool.get();
  if (args.workload == Workload::kArchiveFleet) {
    options.backend = longstore::ServiceOptions::Backend::kFleet;
    options.fleet = ArchiveFleetOptions(fleet_dir);
  }
  stack.service = std::make_unique<longstore::SweepService>(std::move(options));
  longstore::SweepService* service = stack.service.get();
  const auto handle = [service](std::string_view bytes) {
    return service->HandleRequestBytes(bytes);
  };

  QueryResult warmup;
  if (IsFrontier(args.workload)) {
    stack.backend = std::make_unique<BytesEvalBackend>(handle, nullptr);
    const uint64_t seed = WarmupSeed(args.seed);
    if (args.workload == Workload::kFrontierWarm) {
      QueryResult priming =
          FrontierQuery(problem, *stack.backend, seed, Expect::kComputed, nullptr);
      if (!priming.ok) {
        throw std::runtime_error("priming search failed: " + priming.failure);
      }
      stack.primed_answer = std::move(priming.answer);
      warmup = FrontierQuery(problem, *stack.backend, seed, Expect::kCached, nullptr);
    } else {
      warmup = FrontierQuery(problem, *stack.backend, seed, Expect::kComputed, nullptr);
    }
  } else {
    warmup = SweepQuery(handle, SweepRequest(args.workload, WarmupSeed(args.seed)));
  }
  if (!warmup.ok) {
    throw std::runtime_error("warm-up query failed: " + warmup.failure);
  }
  return stack;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    longstore::json::AppendEscaped(out, metrics[i].name);
    out += ":{\"value\":";
    longstore::json::AppendDouble(out, metrics[i].value);
    out += ",\"unit\":";
    longstore::json::AppendEscaped(out, metrics[i].unit);
    out += '}';
  }
  out += '}';
  return out;
}

// --- the run -----------------------------------------------------------------

class Run {
 public:
  Run(Args args, int64_t process_start_ns)
      : args_(std::move(args)), process_start_ns_(process_start_ns) {}

  int Execute();

 private:
  bool sweep() const { return !IsFrontier(args_.workload); }
  uint64_t SeedOf(int64_t index) const {
    return args_.workload == Workload::kFrontierWarm ? WarmupSeed(args_.seed)
                                                     : QuerySeed(args_.seed, index);
  }
  Expect expect() const {
    return args_.workload == Workload::kFrontierWarm ? Expect::kCached
                                                     : Expect::kComputed;
  }

  QueryResult Untraced(int64_t index, const std::string& request);
  QueryResult Traced(int64_t index, const std::string& request);
  // Re-runs a sampled query on the reference path; true when bytes match.
  bool MatchesReference(int64_t index, const std::string& answer);
  // Books one finished query; returns whether it succeeded.
  bool Record(int64_t index, QueryResult q, bool traced);
  std::vector<Metric> EndToEndMetrics() const;
  std::vector<Metric> PerLayerMetrics() const;
  void PrintLayerTable(const std::vector<Metric>& layer) const;

  Args args_;
  int64_t process_start_ns_;
  FrontierProblem problem_;
  std::string fleet_dir_;
  std::unique_ptr<Stack> stack_;
  std::vector<double> setup_seconds_;
  std::vector<double> setup_probe_ms_;
  double setup_steal_ = 0.0;  // WorkStealFraction over the set-ups
  std::vector<double> probe_ms_;  // one probe before each untraced query
  std::vector<TimedQuery> timed_;  // the untraced queries that succeeded

  // Traced replay state (--trace 1).
  Ledger ledger_;
  LayerCounts counts_;
  std::unique_ptr<ServiceReplay> replay_;
  std::unique_ptr<BytesEvalBackend> traced_backend_;
  int64_t prefilter_skipped_ = 0;
  int64_t reference_wall_ns_ = 0;  // archive_fleet: in-process run of the cells
  FrontierEvaluator::Stats frontier_counts_;

  std::vector<double> untraced_ms_;
  std::vector<double> traced_ms_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t trials_ = 0;
  int64_t untraced_ns_ = 0;
  std::vector<std::pair<int64_t, std::string>> samples_;  // index, answer
  std::string first_failure_;
};

bool Run::Record(int64_t index, QueryResult q, bool traced) {
  attempted_++;
  if (q.ok && args_.workload == Workload::kFrontierWarm &&
      q.answer != stack_->primed_answer) {
    Fail(&q, "warm search differs from its priming search");
  }
  if (!q.ok) {
    failed_++;
    if (first_failure_.empty()) {
      first_failure_ = q.failure;
    }
    return false;
  }
  if (traced) {
    traced_ms_.push_back(static_cast<double>(q.latency_ns) / 1e6);
    return true;
  }
  untraced_ms_.push_back(static_cast<double>(q.latency_ns) / 1e6);
  untraced_ns_ += q.latency_ns;
  trials_ += q.new_trials;
  if (index % kCheckEvery == 0 && args_.workload != Workload::kFrontierWarm) {
    samples_.emplace_back(index, std::move(q.answer));
  }
  return true;
}

QueryResult Run::Untraced(int64_t index, const std::string& request) {
  if (sweep()) {
    longstore::SweepService* service = stack_->service.get();
    return SweepQuery(
        [service](const std::string& bytes) {
          return service->HandleRequestBytes(bytes);
        },
        request);
  }
  return FrontierQuery(problem_, *stack_->backend, SeedOf(index), expect(), nullptr);
}

QueryResult Run::Traced(int64_t index, const std::string& request) {
  ledger_.BeginQuery(index);
  if (!sweep()) {
    QueryResult q = FrontierQuery(problem_, *traced_backend_, SeedOf(index),
                                  expect(), &ledger_);
    frontier_counts_.ctmc_evals += q.frontier.ctmc_evals;
    frontier_counts_.simulated_evals += q.frontier.simulated_evals;
    frontier_counts_.cache_served += q.frontier.cache_served;
    return q;
  }
  ServiceReplay* replay = replay_.get();
  QueryResult q = SweepQuery(
      [replay](const std::string& bytes) { return replay->Handle(bytes); },
      request);
  if (args_.workload != Workload::kArchiveFleet || !q.ok) {
    return q;
  }
  // After the query, outside its spans: the prefilter's verdict on the same
  // trial blocks, and the in-process run of the same cells on the same lanes
  // (the fleet's overhead reference, and its answer check).
  longstore::ShardSpec spec = longstore::ShardSpec::FromJson(
      longstore::ServiceRequest::FromJson(request).sweep_document);
  prefilter_skipped_ += PrefilterSkippedTrials(spec);
  const int64_t busy_before = LaneBusyNanos();
  const int64_t t0 = NowNanos();
  std::vector<longstore::SweepCellExecution> executions =
      longstore::RunSweepCells(*stack_->pool, spec.cells, spec.options);
  const int64_t wall = NowNanos() - t0;
  reference_wall_ns_ += wall;
  counts_.sweep_wall_ns += wall;
  counts_.sweep_busy_ns += LaneBusyNanos() - busy_before;
  const std::string reference =
      longstore::FinalizeSweepCells(std::move(executions), spec.axis_names,
                                    spec.options.estimand,
                                    spec.options.mc.confidence)
          .ToJson();
  if (reference != q.answer) {
    Fail(&q, "fleet answer differs from the in-process pool answer");
  }
  return q;
}

bool Run::MatchesReference(int64_t index, const std::string& answer) {
  longstore::PoolEvalBackend reference(stack_->pool.get());
  if (sweep()) {
    const std::string request = SweepRequest(args_.workload, SeedOf(index));
    const std::string document =
        longstore::ServiceRequest::FromJson(request).sweep_document;
    return reference.Evaluate(document).result_json == answer;
  }
  const QueryResult again = FrontierQuery(problem_, reference, SeedOf(index),
                                          Expect::kComputed, nullptr);
  return again.ok && again.answer == answer;
}

std::vector<Metric> Run::EndToEndMetrics() const {
  // Set-ups are too short to window: one stolen share and the median probe.
  const double setup_scale =
      (1.0 - setup_steal_) * Ratio(kProbeReferenceMs, Median(setup_probe_ms_));
  const std::vector<double> query_ms = StealFreeTimes(timed_);
  return {
      {"setup_s", Median(setup_seconds_) * setup_scale, "s"},
      {"query_p50_ms", Median(query_ms), "ms"},
      {"query_p90_ms", Percentile(query_ms, 0.9), "ms"},
      {"peak_rss_mb", static_cast<double>(ReadStatusField("VmHWM")) / 1024.0,
       "MB"},
  };
}

std::vector<Metric> Run::PerLayerMetrics() const {
  const std::map<std::string, Ledger::LayerTime> totals = ledger_.Totals();
  const auto inclusive_ms = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.inclusive_ns) / 1e6;
  };
  const auto self_ms = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e6;
  };
  const double queries = static_cast<double>(traced_ms_.size());
  const double trials = static_cast<double>(counts_.trials);
  const double fleet_overhead_ms =
      counts_.fleet_runs > 0
          ? inclusive_ms("fleet.run") - static_cast<double>(reference_wall_ns_) / 1e6
          : 0.0;
  return {
      {"storage.trials_per_query", Ratio(trials, queries), "trials"},
      {"storage.ns_per_trial", Ratio(static_cast<double>(counts_.lane_busy_ns), trials), "ns"},
      {"storage.events_per_trial", Ratio(static_cast<double>(counts_.events), trials),
       "events/trial"},
      {"storage.prefilter_skip_ratio", Ratio(static_cast<double>(prefilter_skipped_), trials),
       "ratio"},
      {"sweep.run_ms", Ratio(static_cast<double>(counts_.sweep_wall_ns) / 1e6, queries), "ms"},
      {"sweep.lane_util",
       Ratio(static_cast<double>(counts_.sweep_busy_ns),
             static_cast<double>(counts_.sweep_wall_ns) * kLanes),
       "ratio"},
      {"sweep.rounds_per_cell",
       Ratio(static_cast<double>(counts_.rounds), static_cast<double>(counts_.cells)),
       "rounds/cell"},
      {"sweep.finalize_ms", Ratio(inclusive_ms("sweep.finalize"), queries), "ms"},
      {"shard.parse_ms", Ratio(inclusive_ms("shard.parse"), queries), "ms"},
      {"shard.request_bytes", Ratio(static_cast<double>(counts_.request_bytes), queries),
       "bytes"},
      {"fleet.overhead_ms", Ratio(fleet_overhead_ms, queries), "ms"},
      {"fleet.attempts_per_query",
       Ratio(static_cast<double>(counts_.fleet_attempts), queries), "count"},
      {"fleet.worker_busy_ms",
       Ratio(static_cast<double>(counts_.worker_busy_ns) / 1e6, queries), "ms"},
      {"service.self_ms", Ratio(self_ms("service"), queries), "ms"},
      {"service.cache_hit_ratio",
       Ratio(static_cast<double>(counts_.cache_exact_hits),
             static_cast<double>(counts_.cache_lookups)),
       "ratio"},
      {"frontier.self_ms", Ratio(self_ms("frontier.search"), queries), "ms"},
      {"frontier.backend_ms", Ratio(inclusive_ms("frontier.evaluate"), queries), "ms"},
      {"frontier.ctmc_evals",
       Ratio(static_cast<double>(frontier_counts_.ctmc_evals), queries), "count"},
      {"frontier.simulated_evals",
       Ratio(static_cast<double>(frontier_counts_.simulated_evals), queries), "count"},
      {"frontier.cache_served",
       Ratio(static_cast<double>(frontier_counts_.cache_served), queries), "count"},
      {"bench.trace_overhead", Ratio(Median(traced_ms_), Median(untraced_ms_)) - 1.0,
       "ratio"},
  };
}

// Where the traced query time went: each layer's self time per query and its
// share of the traced query time.
void Run::PrintLayerTable(const std::vector<Metric>& layer) const {
  const std::map<std::string, Ledger::LayerTime> totals = ledger_.Totals();
  const double queries = static_cast<double>(traced_ms_.size());
  double query_ms = 0.0;
  for (const double ms : traced_ms_) {
    query_ms += ms / queries;
  }
  struct Row {
    const char* span;
    const char* label;
  };
  const Row rows[] = {
      {"frontier.search", "frontier (enumeration, CTMC screen, result parsing)"},
      {"frontier.evaluate", "frontier eval client (request/response encoding)"},
      {"service", "service (envelopes, validation, sweep id, cache)"},
      {"shard.parse", "shard (ShardSpec::FromJson)"},
      {"fleet.run", "fleet (FleetSupervisor::Run, incl. workers)"},
      {"sweep.run", "sweep + storage (RunSweepCells)"},
      {"sweep.finalize", "sweep finalize (FinalizeSweepCells + ToJson)"},
  };
  std::fprintf(stderr, "\n%s traced run: %.0f queries, %.3f ms per traced query\n",
               WorkloadName(args_.workload), queries, query_ms);
  std::fprintf(stderr, "  %-56s %12s %8s\n", "layer (self time)", "ms/query", "share");
  for (const Row& row : rows) {
    const auto it = totals.find(row.span);
    if (it == totals.end()) {
      continue;
    }
    const double ms = Ratio(static_cast<double>(it->second.self_ns) / 1e6, queries);
    std::fprintf(stderr, "  %-56s %12.4f %7.1f%%\n", row.label, ms,
                 100.0 * Ratio(ms, query_ms));
  }
  for (const Metric& metric : layer) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }
}

int Run::Execute() {
  fleet_dir_ = args_.out_dir + "/fleet-" + std::to_string(::getpid());
  std::error_code error;
  std::filesystem::create_directories(fleet_dir_, error);
  if (error) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", fleet_dir_.c_str());
    return 1;
  }

  // Set-up: measured from process start for the first, then repeated.
  const int setups = args_.trace ? 1 : kSetups;
  const std::vector<CpuTimes> setup_cpu_before = ReadCpuTimes();
  for (int k = 0; k < setups; ++k) {
    stack_.reset();
    const int64_t t0 = k == 0 ? process_start_ns_ : NowNanos();
    stack_ = std::make_unique<Stack>(SetUp(args_, problem_, fleet_dir_));
    setup_seconds_.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    setup_probe_ms_.push_back(HostProbeMs(*stack_->pool));
  }
  std::vector<CpuTimes> setup_cpu;
  AddCpuDelta(setup_cpu_before, ReadCpuTimes(), &setup_cpu);
  setup_steal_ = WorkStealFraction(setup_cpu);
  if (args_.trace) {
    longstore::obs::SetEnabled(true);
    std::optional<longstore::FleetOptions> fleet;
    if (args_.workload == Workload::kArchiveFleet) {
      fleet = ArchiveFleetOptions(fleet_dir_);
    }
    replay_ = std::make_unique<ServiceReplay>(stack_->pool.get(), fleet, &ledger_,
                                              &counts_);
    ServiceReplay* replay = replay_.get();
    traced_backend_ = std::make_unique<BytesEvalBackend>(
        [replay](std::string_view bytes) { return replay->Handle(bytes); },
        &ledger_);
    if (args_.workload == Workload::kFrontierWarm) {
      const QueryResult priming =
          FrontierQuery(problem_, *traced_backend_, WarmupSeed(args_.seed),
                        Expect::kComputed, nullptr);
      if (!priming.ok || priming.answer != stack_->primed_answer) {
        std::fprintf(stderr, "perfbench: traced priming search failed\n");
        return 1;
      }
    }
    ledger_.Clear();
    counts_ = LayerCounts{};
  }

  const int cpus = CpusAvailable();
  int64_t max_threads = ReadStatusField("Threads");
  const std::vector<CpuTimes> loop_cpu_before = ReadCpuTimes();
  const int64_t loop_start = NowNanos();
  for (int64_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(NowNanos() - loop_start) / 1e9;
    if (elapsed >= kMaxLoopSeconds ||
        (elapsed >= args_.seconds &&
         (args_.trace || static_cast<int64_t>(untraced_ms_.size()) >= kMinSamples))) {
      break;
    }
    const std::string request =
        sweep() ? SweepRequest(args_.workload, SeedOf(i)) : std::string();
    if (!args_.trace) {
      probe_ms_.push_back(HostProbeMs(*stack_->pool));
      const std::vector<CpuTimes> before = ReadCpuTimes();
      QueryResult q = Untraced(i, request);
      TimedQuery timed;
      AddCpuDelta(before, ReadCpuTimes(), &timed.cpu);
      timed.end_ns = NowNanos();
      timed.scaled_ms = static_cast<double>(q.latency_ns) / 1e6 *
                        Ratio(kProbeReferenceMs, probe_ms_.back());
      if (Record(i, std::move(q), false)) {
        timed_.push_back(std::move(timed));
      }
    } else {
      // Alternate which path goes first, so neither always runs on caches
      // the other has just warmed.
      QueryResult plain;
      QueryResult traced;
      if (i % 2 == 0) {
        plain = Untraced(i, request);
        traced = Traced(i, request);
      } else {
        traced = Traced(i, request);
        plain = Untraced(i, request);
      }
      if (plain.ok && traced.ok && plain.answer != traced.answer) {
        Fail(&traced, "traced replay answer differs from the service's");
      }
      Record(i, std::move(plain), false);
      Record(i, std::move(traced), true);
    }
    max_threads = std::max(max_threads, ReadStatusField("Threads"));
  }
  std::vector<CpuTimes> loop_cpu;
  AddCpuDelta(loop_cpu_before, ReadCpuTimes(), &loop_cpu);

  // Answer checks on the fixed sample, outside the timed loop.
  int64_t checked = 0;
  for (const auto& [index, answer] : samples_) {
    checked++;
    if (!MatchesReference(index, answer)) {
      failed_++;
      if (first_failure_.empty()) {
        first_failure_ = "query " + std::to_string(index) +
                         " differs from the reference path";
      }
    }
  }
  max_threads = std::max(max_threads, ReadStatusField("Threads"));

  const bool threads_ok = max_threads <= cpus;
  const bool correct = failed_ == 0 && threads_ok && !untraced_ms_.empty();
  const std::vector<Metric> metrics =
      args_.trace ? PerLayerMetrics() : EndToEndMetrics();

  if (args_.trace) {
    PrintLayerTable(metrics);
    const std::string spans_path = args_.out_dir + "/spans-" +
                                   WorkloadName(args_.workload) + "-seed" +
                                   std::to_string(args_.seed) + ".jsonl";
    if (!ledger_.WriteJsonl(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    }
  }
  if (!first_failure_.empty()) {
    std::fprintf(stderr, "perfbench: first failure: %s\n", first_failure_.c_str());
  }
  if (!threads_ok) {
    std::fprintf(stderr, "perfbench: %" PRId64 " threads exceed the %d CPUs\n",
                 max_threads, cpus);
  }

  // Run diagnostics: recorded beside the metrics, not metrics themselves.
  const CpuTimes& vm = loop_cpu.front();
  std::vector<CpuTimes> query_cpu;
  for (const TimedQuery& query : timed_) {
    AddCpuDelta(std::vector<CpuTimes>(query.cpu.size()), query.cpu, &query_cpu);
  }
  std::vector<std::pair<std::string, double>> diagnostics = {
      {"bench.steal_share", Ratio(static_cast<double>(vm.steal), static_cast<double>(vm.total))},
      {"bench.busy_share", Ratio(static_cast<double>(vm.busy), static_cast<double>(vm.total))},
      {"bench.steal_fraction", WorkStealFraction(query_cpu)},
      {"bench.max_threads", static_cast<double>(max_threads)},
      {"nproc", static_cast<double>(cpus)},
      {"lanes", kLanes},
      {"fleet_workers", args_.workload == Workload::kArchiveFleet ? kFleetWorkers : 0.0},
      {"queries", static_cast<double>(untraced_ms_.size())},
      {"checked", static_cast<double>(checked)},
      {"trials_per_s",
       Ratio(static_cast<double>(trials_), static_cast<double>(untraced_ns_) / 1e9)},
      {"failed_ratio", Ratio(static_cast<double>(failed_), static_cast<double>(attempted_))},
  };
  if (!args_.trace) {
    diagnostics.insert(diagnostics.end(),
                       {{"probe_ms", Median(probe_ms_)},
                        {"raw_setup_s", Median(setup_seconds_)},
                        {"raw_query_p50_ms", Median(untraced_ms_)},
                        {"raw_query_p90_ms", Percentile(untraced_ms_, 0.9)}});
  }
  std::string line = "{\"diagnostics\":{\"workload\":";
  longstore::json::AppendEscaped(line, WorkloadName(args_.workload));
  line += ",\"temp_fs\":";
  longstore::json::AppendEscaped(line, FilesystemName(fleet_dir_));
  for (const auto& [name, value] : diagnostics) {
    line += ',';
    longstore::json::AppendEscaped(line, name);
    line += ':';
    longstore::json::AppendDouble(line, value);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());

  std::printf("{\"correct\":%s,\"attempted\":%" PRId64 ",\"failed\":%" PRId64
              ",\"metrics\":%s}\n",
              correct ? "true" : "false", attempted_, failed_,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  stack_.reset();
  ::rmdir(fleet_dir_.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int64_t process_start_ns = perfbench::NowNanos();
  const std::optional<perfbench::Args> args = perfbench::ParseArgs(argc, argv);
  if (!args) {
    return perfbench::Usage(argv[0]);
  }
  try {
    perfbench::Run run(*args, process_start_ns);
    return run.Execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
