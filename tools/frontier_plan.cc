// frontier_plan: search the cost/reliability design frontier.
//
//   frontier_plan [--golden-small] [--backend=pool|service] [--socket=PATH]
//                 [--mission-years=Y] [--target-loss=P] [--budget=USD]
//                 [--archive-gb=G] [--trials=N] [--seed=S] [--threads=N]
//                 [--mixed-media] [--migrate-at=Y1,Y2,...]
//                 [--force-simulation] [--format=table|csv|json] [--explain]
//                 [--metrics-out=FILE] [--trace-out=FILE]
//
// Searches replica count x media mix x audit cadence x deployment style
// (x migration schedule with --migrate-at) from the drive catalog, prices
// each candidate with the cost model, scores it with the exact CTMC where
// compatible and the importance-sampled sweep engine otherwise, and prints
// the cost/reliability frontier. See src/frontier/README.md.
//
// Search space:
//   --golden-small       the pinned small search (3 media x replicas {2,3,4}
//                        x audits {1,12}, fully diverse, mixed media) shared
//                        with tests/frontier_golden_test.cc and the CI
//                        frontier-smoke job. Without it: the full catalog,
//                        audits {0,1,12,52}, all three deployment styles.
//   --mixed-media        also enumerate heterogeneous fleets (multisets of
//                        the media list); implied by --golden-small
//   --migrate-at=Y,...   add two-phase schedules migrating between every
//                        ordered pair of media at each year Y
//
// Evaluation:
//   --backend=pool       in-process worker pool (default)
//   --backend=service    a resident sweep_serviced: repeated searches hit
//                        its content-keyed result cache (requires --socket)
//   --threads=N          pool lanes (pool backend; never changes a byte of
//                        output — that is the determinism contract)
//   --force-simulation   simulate even CTMC-compatible candidates
//
// Output: --format=table (default), csv, or json — the json bytes are the
// canonical FrontierResult and are byte-identical across thread counts,
// backends, and candidate enumeration order. --explain adds the per-point
// cost component breakdown to table/csv. Exit 0 = ok, 1 = error.
//
// Every numeric flag is parsed strictly (tools/numeric_flags.h): years,
// probabilities, dollars, gigabytes and trial counts must be positive,
// --threads non-negative (0 = all pool workers), --seed an unsigned
// integer. Anything else — "abc", "3x", "-1", "nan", a bad --migrate-at
// entry — prints the usage and exits 1.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/frontier/eval_backend.h"
#include "src/frontier/frontier.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sweep/worker_pool.h"
#include "tools/numeric_flags.h"

namespace longstore {
namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--golden-small] [--backend=pool|service] [--socket=PATH]\n"
      "  [--mission-years=Y] [--target-loss=P] [--budget=USD] [--archive-gb=G]\n"
      "  [--trials=N] [--seed=S] [--threads=N] [--mixed-media]\n"
      "  [--migrate-at=Y1,Y2,...] [--force-simulation]\n"
      "  [--format=table|csv|json] [--explain]\n"
      "  [--metrics-out=FILE] [--trace-out=FILE]\n",
      argv0);
  return 1;
}

// "Y1,Y2,...": every entry a positive number of years.
bool ParseYearList(const std::string& text, std::vector<double>* years) {
  years->clear();
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    double year = 0.0;
    if (!ParseDoubleFlag(text.substr(start, comma - start).c_str(),
                         kPositiveDouble, &year)) {
      return false;
    }
    years->push_back(year);
    start = comma + 1;
  }
  return true;
}

int Run(int argc, char** argv) {
  bool golden_small = false;
  bool mixed_media = false;
  bool force_simulation = false;
  bool explain = false;
  std::string backend_name = "pool";
  std::string socket_path;
  std::string format = "table";
  std::string metrics_out;
  std::string trace_out;
  std::vector<double> migration_years;
  // 0 (or, for the seed, nullopt) = keep the search's default.
  double mission_years = 0.0;
  double target_loss = 0.0;
  double budget = 0.0;
  double archive_gb = 0.0;
  int64_t trials = 0;
  std::optional<uint64_t> seed;
  int threads = 0;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--golden-small") == 0) {
      golden_small = true;
    } else if (std::strcmp(arg, "--mixed-media") == 0) {
      mixed_media = true;
    } else if (std::strcmp(arg, "--force-simulation") == 0) {
      force_simulation = true;
    } else if (std::strcmp(arg, "--explain") == 0) {
      explain = true;
    } else if (MatchValueFlag(arg, "--backend", &value)) {
      backend_name = value;
    } else if (MatchValueFlag(arg, "--socket", &value)) {
      socket_path = value;
    } else if (MatchValueFlag(arg, "--format", &value)) {
      format = value;
    } else if (MatchValueFlag(arg, "--metrics-out", &value)) {
      metrics_out = value;
    } else if (MatchValueFlag(arg, "--trace-out", &value)) {
      trace_out = value;
    } else if (MatchValueFlag(arg, "--migrate-at", &value)) {
      if (!ParseYearList(value, &migration_years)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--mission-years", &value)) {
      if (!ParseDoubleFlag(value, kPositiveDouble, &mission_years)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--target-loss", &value)) {
      if (!ParseDoubleFlag(value, kPositiveDouble, &target_loss)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--budget", &value)) {
      if (!ParseDoubleFlag(value, kPositiveDouble, &budget)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--archive-gb", &value)) {
      if (!ParseDoubleFlag(value, kPositiveDouble, &archive_gb)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--trials", &value)) {
      if (!ParseIntFlag(value, int64_t{1}, &trials)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--seed", &value)) {
      uint64_t parsed = 0;
      if (!ParseUint64Flag(value, &parsed)) {
        return Usage(argv[0]);
      }
      seed = parsed;
    } else if (MatchValueFlag(arg, "--threads", &value)) {
      if (!ParseIntFlag(value, 0, &threads)) {
        return Usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg);
      return Usage(argv[0]);
    }
  }
  if (format != "table" && format != "csv" && format != "json") {
    std::fprintf(stderr, "%s: bad --format '%s'\n", argv[0], format.c_str());
    return Usage(argv[0]);
  }
  if (backend_name != "pool" && backend_name != "service") {
    std::fprintf(stderr, "%s: bad --backend '%s'\n", argv[0],
                 backend_name.c_str());
    return Usage(argv[0]);
  }
  if (backend_name == "service" && socket_path.empty()) {
    std::fprintf(stderr, "%s: --backend=service requires --socket=PATH\n",
                 argv[0]);
    return Usage(argv[0]);
  }

  FrontierTarget target =
      golden_small ? GoldenSmallTarget() : FrontierTarget{};
  FrontierSpace space = golden_small ? GoldenSmallSpace() : FrontierSpace{};
  FrontierOptions options =
      golden_small ? GoldenSmallOptions() : FrontierOptions{};
  if (!golden_small) {
    space.audit_choices = {0.0, 1.0, 12.0, 52.0};
    space.deployment_choices = {DeploymentStyle::kSingleSite,
                                DeploymentStyle::kGeoReplicatedSameAdmin,
                                DeploymentStyle::kFullyDiverse};
  }
  if (mission_years > 0.0) {
    target.mission = Duration::Years(mission_years);
  }
  if (target_loss > 0.0) {
    target.target_loss_probability = target_loss;
  }
  if (budget > 0.0) {
    target.max_annual_cost_usd = budget;
  }
  if (archive_gb > 0.0) {
    space.archive_gb = archive_gb;
  }
  if (mixed_media) {
    space.mixed_media = true;
  }
  if (!migration_years.empty()) {
    space.migration_years = std::move(migration_years);
  }
  if (trials > 0) {
    options.trials = trials;
  }
  if (seed) {
    options.seed = *seed;
  }
  options.force_simulation = force_simulation;

  obs::TraceJournal journal;
  journal.Open(trace_out);
  options.journal = &journal;

  // The pool is sized by --threads locally; the thread count is never part
  // of a sweep document, so it cannot move a result byte.
  std::unique_ptr<WorkerPool> pool;
  std::unique_ptr<FrontierEvalBackend> backend;
  if (backend_name == "service") {
    backend = std::make_unique<SocketEvalBackend>(socket_path);
  } else if (threads > 0) {
    pool = std::make_unique<WorkerPool>(threads);
    backend = std::make_unique<PoolEvalBackend>(pool.get());
  } else {
    backend = std::make_unique<PoolEvalBackend>();
  }

  FrontierEvaluator evaluator(options, backend.get());
  const FrontierResult result = RunFrontierSearch(target, space, evaluator);

  const FrontierEvaluator::Stats& stats = evaluator.stats();
  std::fprintf(stderr,
               "[frontier] %zu points: %lld exact, %lld simulated "
               "(%lld new trials), %lld memo hits, %lld served from cache\n",
               result.points.size(),
               static_cast<long long>(stats.ctmc_evals),
               static_cast<long long>(stats.simulated_evals),
               static_cast<long long>(stats.simulated_trials),
               static_cast<long long>(stats.memo_hits),
               static_cast<long long>(stats.cache_served));

  std::string error;
  if (!journal.Flush(&error)) {
    std::fprintf(stderr, "frontier_plan: trace journal: %s\n", error.c_str());
  }
  if (!metrics_out.empty() &&
      !obs::WriteFileAtomic(metrics_out, obs::Registry::Global().SnapshotJson(),
                            &error)) {
    std::fprintf(stderr, "frontier_plan: metrics snapshot: %s\n", error.c_str());
  }

  if (format == "json") {
    std::fputs(result.ToJson().c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (format == "csv") {
    std::fputs(result.ToCsv(explain).c_str(), stdout);
  } else {
    std::fputs(result.ToTable(explain).c_str(), stdout);
  }
  return 0;
}

}  // namespace
}  // namespace longstore

int main(int argc, char** argv) {
  try {
    return longstore::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "frontier_plan: %s\n", e.what());
    return 1;
  }
}
