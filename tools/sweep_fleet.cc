// sweep_fleet: fault-tolerant driver for sharded sweeps — plans a sweep
// into shards, supervises a fleet of sweep_worker processes through the
// FleetSupervisor (src/fleet/), and prints the merged result.
//
//   sweep_fleet --worker=PATH (--cheetah | --scenario=FILE ...) [options]
//
// Sweep selection:
//   --cheetah            the §5.4 Cheetah golden figure's Monte Carlo sweep
//                        (3 configurations x 4000 trials, seed 33;
//                        tools/figure_sweeps.h, the cells
//                        bench_scrubbing_effect prints), so a fleet run is
//                        diffable against the single-process golden
//   --scenario=FILE      one cell per flag: the scenario JSON in FILE
//   --trials/--seed/--estimand=mttdl|loss/--mission-years configure the
//                        --scenario sweep (ignored with --cheetah)
//   --seed-mode=shared_root|per_cell_derived|scenario_derived|counter_v1
//                        override the sweep's RNG stream mode (applies to
//                        --cheetah too). counter_v1 draws every trial from
//                        the counter-based generator, which is what the
//                        rng-stream-compat CI job replays the golden figure
//                        under; leaving the flag unset keeps each sweep's
//                        historical default, so existing goldens never move
//
// Execution:
//   --single             run in-process (SweepRunner; the golden reference)
//   --worker=PATH        sweep_worker binary for fleet runs
//   --shards=K           initial shard count            (default 3)
//   --max-parallel=N     concurrent workers             (default 2)
//   --max-retries=N      retries per unit after first attempt (default 3)
//   --timeout-s=T        per-attempt wall clock, 0 = none (default 120)
//   --backoff-initial-s=T first retry delay             (default 0.1)
//   --partial-ok         finalize survivors when cells exhaust retries;
//                        missing cells are explicitly marked, exit code 2
//   --threads=N          pool threads per worker (default 1); with
//                        --single, of the in-process run (default every
//                        core). 0 = every core
//   --tmp=DIR            scratch directory              (default: mkdtemp)
//   --keep-files         keep the shard documents
//   --fail-mode=crash|hang|corrupt|flaky --fail-prob=P --fail-seed=S
//                        forwarded fault injection (CI chaos testing)
//
// Every numeric flag is parsed strictly (tools/numeric_flags.h): a value that
// is not wholly a number ("abc", "", "3x"), or that lies outside the flag's
// range (a count below 1 or 0, a negative or NaN time, a probability outside
// [0, 1]), is a usage error, never a silent default.
//
// Telemetry (out-of-band; never changes a result byte):
//   --metrics-out=FILE   write the canonical MetricsSnapshot JSON after the
//                        run (atomic tmp/fsync/rename). Fleet runs merge
//                        every harvested worker's own snapshot in, so the
//                        file aggregates the fleet's sweep.* counts next to
//                        the supervisor's fleet.* ones.
//   --trace-out=FILE     write the fleet supervision trace journal (JSONL;
//                        see src/obs/README.md, tools/trace_dump)
//
// Output: --format=table|csv|json (default table) on stdout; supervision
// log and stats on stderr. A fleet run that completes is byte-identical on
// stdout to the same sweep's --single run — that is the merge contract, and
// the CI rng-stream-compat, fleet-chaos and telemetry-identity jobs diff
// exactly this. Exit 0 =
// complete, 2 = partial (--partial-ok), 1 = error.

#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/scenario.h"
#include "src/sweep/sweep.h"
#include "src/sweep/worker_pool.h"
#include "src/util/json.h"
#include "tools/figure_sweeps.h"
#include "tools/numeric_flags.h"

namespace longstore {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--cheetah | --scenario=FILE ...) [--single | "
               "--worker=PATH]\n"
               "  [--shards=K] [--max-parallel=N] [--max-retries=N] "
               "[--timeout-s=T]\n"
               "  [--backoff-initial-s=T] [--partial-ok] [--threads=N (>= 0)] "
               "[--tmp=DIR]\n"
               "  [--keep-files] [--format=table|csv|json]\n"
               "  [--trials=N] [--seed=S] [--estimand=mttdl|loss] "
               "[--mission-years=Y]\n"
               "  [--seed-mode=shared_root|per_cell_derived|scenario_derived|"
               "counter_v1]\n"
               "  [--fail-mode=MODE] [--fail-prob=P] [--fail-seed=S]\n"
               "  [--metrics-out=FILE] [--trace-out=FILE]\n",
               argv0);
  return 1;
}

// Best-effort telemetry sinks: a failed write warns on stderr but never
// fails the run — the figure is the product, telemetry is commentary.
// `worker_metrics` (fleet runs) is folded into the driver's own snapshot,
// so --metrics-out carries the whole fleet's sweep.* counts, not just the
// supervisor's fleet.* ones.
void WriteTelemetry(const std::string& metrics_out, obs::TraceJournal& journal,
                    const obs::MetricsSnapshot* worker_metrics = nullptr) {
  std::string error;
  if (!journal.Flush(&error)) {
    std::fprintf(stderr, "sweep_fleet: trace journal: %s\n", error.c_str());
  }
  if (metrics_out.empty()) {
    return;
  }
  obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
  if (worker_metrics != nullptr) {
    snapshot.MergeFrom(*worker_metrics);
  }
  if (!obs::WriteFileAtomic(metrics_out, snapshot.ToJson(), &error)) {
    std::fprintf(stderr, "sweep_fleet: metrics snapshot: %s\n", error.c_str());
  }
}

std::string ReadScenarioFile(const std::string& path) {
  std::string text;
  std::string error;
  if (!obs::ReadWholeFile(path, &text, &error)) {
    throw std::runtime_error("scenario file: " + error);
  }
  return text;
}

void PrintResult(const SweepResult& result, const std::string& format,
                 bool complete, const std::vector<FleetLostCell>& lost,
                 size_t total_cells) {
  if (format == "json") {
    std::string out = "{\"complete\":";
    out += complete ? "true" : "false";
    out += ",\"missing\":[";
    for (size_t i = 0; i < lost.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += "{\"index\":" + std::to_string(lost[i].index) + ",\"label\":";
      json::AppendEscaped(out, lost[i].label);
      out += ",\"reason\":";
      json::AppendEscaped(out, lost[i].reason);
      out += '}';
    }
    out += "],\"cells\":";
    out += result.ToJson();
    out += "}";
    std::printf("%s\n", out.c_str());
    return;
  }
  if (format == "csv") {
    std::printf("%s", result.ToCsv().c_str());
  } else {
    std::printf("%s", result.ToTable().Render().c_str());
  }
  if (!complete) {
    std::printf("# INCOMPLETE SWEEP: %zu of %zu cells lost after retries "
                "were exhausted\n",
                lost.size(), total_cells);
    for (const FleetLostCell& cell : lost) {
      std::printf("#   cell %zu \"%s\": %s\n", cell.index, cell.label.c_str(),
                  cell.reason.c_str());
    }
  }
}

int Main(int argc, char** argv) {
  bool cheetah = false;
  bool single = false;
  std::vector<std::string> scenario_files;
  std::string format = "table";
  std::string tmp_dir;
  std::string metrics_out;
  std::string trace_out;
  std::string estimand = "mttdl";
  std::optional<SweepOptions::SeedMode> seed_mode;  // unset = the sweep's default
  int64_t trials = 2000;
  uint64_t seed = 1;
  double mission_years = 50.0;
  int threads = -1;  // -1 = not given

  FleetOptions fleet;
  fleet.shard_count = 3;
  fleet.max_parallel = 2;
  fleet.max_retries = 3;
  fleet.timeout_seconds = 120.0;
  fleet.log = stderr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--cheetah") == 0) {
      cheetah = true;
    } else if (std::strcmp(arg, "--single") == 0) {
      single = true;
    } else if (std::strcmp(arg, "--partial-ok") == 0) {
      fleet.partial_ok = true;
    } else if (std::strcmp(arg, "--keep-files") == 0) {
      fleet.keep_files = true;
    } else if (MatchValueFlag(arg, "--scenario", &value)) {
      scenario_files.push_back(value);
    } else if (MatchValueFlag(arg, "--worker", &value)) {
      fleet.worker_path = value;
    } else if (MatchValueFlag(arg, "--shards", &value)) {
      if (!ParseIntFlag(value, 1, &fleet.shard_count)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--max-parallel", &value)) {
      if (!ParseIntFlag(value, 1, &fleet.max_parallel)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--max-retries", &value)) {
      if (!ParseIntFlag(value, 0, &fleet.max_retries)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--timeout-s", &value)) {
      if (!ParseDoubleFlag(value, 0.0, &fleet.timeout_seconds)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--backoff-initial-s", &value)) {
      if (!ParseDoubleFlag(value, 0.0, &fleet.backoff_initial_seconds)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--threads", &value)) {
      if (!ParseIntFlag(value, 0, &threads)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--tmp", &value)) {
      tmp_dir = value;
    } else if (MatchValueFlag(arg, "--format", &value)) {
      format = value;
      if (format != "table" && format != "csv" && format != "json") {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--trials", &value)) {
      if (!ParseIntFlag(value, int64_t{1}, &trials)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--seed", &value)) {
      if (!ParseUint64Flag(value, &seed)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--estimand", &value)) {
      estimand = value;
      if (estimand != "mttdl" && estimand != "loss") {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--mission-years", &value)) {
      if (!ParseDoubleFlag(value, 0.0, &mission_years)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--seed-mode", &value)) {
      seed_mode = SeedModeFromName(value);
      if (!seed_mode) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--fail-mode", &value)) {
      fleet.fail_mode = value;
    } else if (MatchValueFlag(arg, "--fail-prob", &value)) {
      if (!ParseDoubleFlag(value, 0.0, &fleet.fail_prob) || fleet.fail_prob > 1.0) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--fail-seed", &value)) {
      if (!ParseUint64Flag(value, &fleet.fail_seed)) {
        return Usage(argv[0]);
      }
    } else if (MatchValueFlag(arg, "--metrics-out", &value)) {
      metrics_out = value;
    } else if (MatchValueFlag(arg, "--trace-out", &value)) {
      trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (cheetah == !scenario_files.empty()) {  // exactly one sweep source
    return Usage(argv[0]);
  }
  if (!single && fleet.worker_path.empty()) {
    std::fprintf(stderr, "%s: --worker=PATH is required (or pass --single)\n",
                 argv[0]);
    return 1;
  }

  SweepSpec spec;
  SweepOptions options;
  if (cheetah) {
    BuildCheetahSweep(&spec, &options);
  } else {
    Scenario base = Scenario::FromJson(ReadScenarioFile(scenario_files.front()));
    spec = SweepSpec(base);
    for (const std::string& path : scenario_files) {
      spec.AddCell(path, Scenario::FromJson(ReadScenarioFile(path)));
    }
    options.estimand = estimand == "loss"
                           ? SweepOptions::Estimand::kLossProbability
                           : SweepOptions::Estimand::kMttdl;
    options.mission = Duration::Years(mission_years);
    options.mc.trials = trials;
    options.mc.seed = seed;
    // Content-derived seeds: the estimate depends on the scenario alone,
    // not on the file name or cell position.
    options.seed_mode = SweepOptions::SeedMode::kScenarioDerived;
  }
  if (seed_mode) {
    options.seed_mode = *seed_mode;
  }

  if (threads >= 0) {
    fleet.worker_threads = threads;
  }

  obs::TraceJournal journal;
  journal.Open(trace_out);

  if (single) {
    // Lanes only; results never change. Unset (-1), like 0, is every core.
    WorkerPool pool(threads);
    const SweepResult result = SweepRunner(&pool).Run(spec, options);
    WriteTelemetry(metrics_out, journal);
    PrintResult(result, format, /*complete=*/true, {}, result.cells.size());
    return 0;
  }

  // A directory this run makes goes on every exit path, a FleetError
  // included, unless --keep-files keeps it; a --tmp directory is the
  // caller's.
  char made_tmp[] = "/tmp/sweep_fleet.XXXXXX";
  struct RemoveMadeDir {
    const char* path = nullptr;
    ~RemoveMadeDir() {
      if (path != nullptr) {
        ::rmdir(path);
      }
    }
  } remove_made_dir;
  if (tmp_dir.empty()) {
    if (::mkdtemp(made_tmp) == nullptr) {
      std::fprintf(stderr, "%s: mkdtemp failed\n", argv[0]);
      return 1;
    }
    tmp_dir = made_tmp;
    if (!fleet.keep_files) {
      remove_made_dir.path = made_tmp;
    }
  }
  fleet.temp_dir = tmp_dir;
  fleet.journal = &journal;

  const FleetReport report = FleetSupervisor(fleet).Run(spec, options);
  WriteTelemetry(metrics_out, journal, &report.worker_metrics);
  std::fprintf(stderr,
               "[fleet] stats: %d spawned, %d succeeded, %d crashed, "
               "%d timed out, %d corrupt, %d malformed, %d retries, %d splits\n",
               report.stats.spawned, report.stats.succeeded, report.stats.crashed,
               report.stats.timed_out, report.stats.corrupt,
               report.stats.malformed, report.stats.retries, report.stats.splits);
  PrintResult(report.result, format, report.complete, report.lost,
              report.result.cells.size() + report.lost.size());
  return report.complete ? 0 : 2;
}

}  // namespace
}  // namespace longstore

int main(int argc, char** argv) {
  try {
    return longstore::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_fleet: %s\n", e.what());
    return 1;
  }
}
