// trace_dump: reconstructs human-readable timelines from a trace journal
// (the JSONL event log sweep_fleet/sweep_serviced write with --trace-out;
// schema in src/obs/trace.h and src/obs/README.md).
//
//   trace_dump --journal=FILE
//
// Output, per fleet unit, the attempt timeline in event order with
// timestamps relative to the journal's first event:
//
//   unit 1:
//     +0.000s attempt 1: spawned pid 4242 (2 cells)
//     +0.031s attempt 1: failed (crashed): worker died: ...; backoff 0.02s
//     +0.055s attempt 2: spawned pid 4250 (2 cells)
//     +0.301s attempt 2: done (2 cells merged)
//
// followed by service request lines (when the journal came from
// sweep_serviced), a frontier candidate lifecycle view (when it came from
// frontier_plan: candidate -> screened/simulated/cached -> kept/dominated,
// plus the search summary) and a final anomaly section flagging
//   * retry storms  — units that burned 3+ backoffs,
//   * poison cells  — units that split or were lost outright,
//   * cache thrash  — the same sweep_id computed cold more than once (it
//     was cached, evicted, and recomputed).
//
// The dump is diagnostic tooling over telemetry: it never reads or affects
// result documents. Exit 0 = dumped; 1 = unreadable/unparseable journal.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/json.h"

namespace longstore {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --journal=FILE\n", argv0);
  return 1;
}

// Tolerant field access: trace events grow fields without a schema bump, so
// the dump reads what it knows and ignores the rest (never ObjectReader,
// which would reject additive fields).
int64_t IntField(const json::Value& event, const char* key, int64_t fallback) {
  const json::Value* value = event.Find(key);
  if (value == nullptr || value->kind != json::Value::Kind::kNumber) {
    return fallback;
  }
  return static_cast<int64_t>(value->number);
}

double DblField(const json::Value& event, const char* key, double fallback) {
  const json::Value* value = event.Find(key);
  if (value == nullptr || value->kind != json::Value::Kind::kNumber) {
    return fallback;
  }
  return value->number;
}

std::string StrField(const json::Value& event, const char* key) {
  const json::Value* value = event.Find(key);
  if (value == nullptr || value->kind != json::Value::Kind::kString) {
    return "";
  }
  return value->string;
}

struct UnitTimeline {
  std::vector<std::string> lines;
  int backoffs = 0;
  bool split = false;
  bool lost = false;
};

// One frontier candidate's lifecycle, assembled from frontier_candidate
// (generation/evaluation) and frontier_point (dominance) events:
// candidate -> screened (ctmc) / simulated / cached -> kept / dominated.
struct FrontierLifecycle {
  std::string status;  // ctmc | simulated | mixed | over_budget | duplicate
  std::string source;  // computed | cache | resumed | memo (joined with '+')
  double cost = 0.0;
  double loss = 0.0;
  int64_t trials = 0;
  int kept = -1;  // -1 unknown (never reached dominance), 0 dominated, 1 kept
};

int Main(int argc, char** argv) {
  std::string journal_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--journal=", 10) == 0) {
      journal_path = arg + 10;
    } else {
      return Usage(argv[0]);
    }
  }
  if (journal_path.empty()) {
    return Usage(argv[0]);
  }

  std::string text;
  std::string error;
  if (!obs::ReadWholeFile(journal_path, &text, &error)) {
    throw std::runtime_error("journal: " + error);
  }

  std::map<int64_t, UnitTimeline> units;
  std::vector<std::string> fleet_lines;    // plan/done/partial
  std::vector<std::string> service_lines;  // request lifecycles
  std::map<std::string, int> computed_by_sweep;  // sweep_id -> cold runs
  std::map<std::string, FrontierLifecycle> frontier;  // candidate id -> fate
  std::vector<std::string> frontier_summary;
  int64_t first_ts = -1;
  size_t events = 0;
  size_t line_number = 0;
  std::string trace_id;

  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    ++line_number;
    if (line.empty()) {
      continue;
    }
    json::Value event;
    try {
      event = json::Parse(line, "trace_dump");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace_dump: %s line %zu: %s\n",
                   journal_path.c_str(), line_number, e.what());
      return 1;
    }
    ++events;

    const int64_t ts = IntField(event, "ts_ns", 0);
    if (first_ts < 0) {
      first_ts = ts;
    }
    const double rel_s = static_cast<double>(ts - first_ts) * 1e-9;
    if (trace_id.empty() || trace_id == "0x0") {
      // journal_open predates SetTraceId; prefer the first stamped event.
      trace_id = StrField(event, "trace_id");
    }
    const std::string name = StrField(event, "event");
    char prefix[48];
    std::snprintf(prefix, sizeof(prefix), "  %+9.3fs ", rel_s);

    const auto render = [&](const char* detail_fmt, auto... args) {
      char detail[512];
      std::snprintf(detail, sizeof(detail), detail_fmt, args...);
      return std::string(prefix) + detail;
    };

    if (name == "journal_open") {
      continue;
    }
    if (name == "unit_spawn" || name == "unit_backoff" || name == "unit_done" ||
        name == "unit_split" || name == "unit_lost") {
      const int64_t unit = IntField(event, "unit", -1);
      const int64_t attempt = IntField(event, "attempt", 0);
      UnitTimeline& timeline = units[unit];
      if (name == "unit_spawn") {
        timeline.lines.push_back(
            render("attempt %" PRId64 ": spawned pid %" PRId64 " (%" PRId64
                   " cells)",
                   attempt, IntField(event, "pid", 0),
                   IntField(event, "cells", 0)));
      } else if (name == "unit_backoff") {
        ++timeline.backoffs;
        timeline.lines.push_back(
            render("attempt %" PRId64 ": failed (%s): %s; backoff %.2fs",
                   attempt, StrField(event, "kind").c_str(),
                   StrField(event, "reason").c_str(),
                   DblField(event, "backoff_s", 0.0)));
      } else if (name == "unit_done") {
        timeline.lines.push_back(render("attempt %" PRId64 ": done (%" PRId64
                                        " cells merged)",
                                        attempt, IntField(event, "cells", 0)));
      } else if (name == "unit_split") {
        timeline.split = true;
        timeline.lines.push_back(
            render("attempt %" PRId64 ": exhausted (%s): %s; split %" PRId64
                   " cells",
                   attempt, StrField(event, "kind").c_str(),
                   StrField(event, "reason").c_str(),
                   IntField(event, "cells", 0)));
      } else {
        timeline.lost = true;
        timeline.lines.push_back(
            render("attempt %" PRId64 ": LOST (%s): %s (%" PRId64 " cells)",
                   attempt, StrField(event, "kind").c_str(),
                   StrField(event, "reason").c_str(),
                   IntField(event, "cells", 0)));
      }
      continue;
    }
    if (name == "service_request") {
      const std::string kind = StrField(event, "kind");
      const std::string source = StrField(event, "source");
      service_lines.push_back(render(
          "%s -> %s (ok=%" PRId64 ", %.3fms, %" PRId64 " new trials)",
          kind.c_str(), source.c_str(), IntField(event, "ok", 0),
          static_cast<double>(IntField(event, "latency_ns", 0)) * 1e-6,
          IntField(event, "new_trials", 0)));
      if (kind == "sweep" && source == "computed") {
        const json::Value* id = event.Find("sweep_id");
        if (id != nullptr && id->kind == json::Value::Kind::kString) {
          ++computed_by_sweep[id->string];
        }
      }
      continue;
    }
    if (name == "frontier_candidate") {
      FrontierLifecycle& life = frontier[StrField(event, "id")];
      life.status = StrField(event, "status");
      life.source = StrField(event, "source");
      life.cost = DblField(event, "annual_cost_usd", life.cost);
      life.loss = DblField(event, "loss_probability", 0.0);
      life.trials = IntField(event, "trials", 0);
      continue;
    }
    if (name == "frontier_point") {
      FrontierLifecycle& life = frontier[StrField(event, "id")];
      life.kept = static_cast<int>(IntField(event, "kept", 0));
      continue;
    }
    if (name == "frontier_search") {
      frontier_summary.push_back(render(
          "search: %" PRId64 " generated (%" PRId64 " duplicate, %" PRId64
          " over budget) -> %" PRId64 " points, %" PRId64 " on the frontier",
          IntField(event, "generated", 0), IntField(event, "duplicates", 0),
          IntField(event, "over_budget", 0), IntField(event, "points", 0),
          IntField(event, "kept", 0)));
      continue;
    }
    // fleet_plan / fleet_done / fleet_partial and any future event: the msg
    // field is the readable form.
    const std::string msg = StrField(event, "msg");
    fleet_lines.push_back(render("%s%s%s", name.c_str(),
                                 msg.empty() ? "" : ": ",
                                 msg.c_str()));
  }

  if (events == 0) {
    std::fprintf(stderr, "trace_dump: %s holds no events\n",
                 journal_path.c_str());
    return 1;
  }

  std::printf("journal %s: %zu events, trace_id %s\n", journal_path.c_str(),
              events, trace_id.empty() ? "(none)" : trace_id.c_str());
  for (const std::string& line : fleet_lines) {
    std::printf("%s\n", line.c_str());
  }
  for (const auto& [unit, timeline] : units) {
    std::printf("unit %" PRId64 ":\n", unit);
    for (const std::string& line : timeline.lines) {
      std::printf("%s\n", line.c_str());
    }
  }
  if (!service_lines.empty()) {
    std::printf("service requests:\n");
    for (const std::string& line : service_lines) {
      std::printf("%s\n", line.c_str());
    }
  }
  if (!frontier.empty() || !frontier_summary.empty()) {
    std::printf("frontier candidates:\n");
    for (const auto& [id, life] : frontier) {
      if (life.status == "duplicate") {
        std::printf("  %s: duplicate (already enumerated)\n", id.c_str());
      } else if (life.status == "over_budget") {
        std::printf("  %s: over budget ($%.2f/y)\n", id.c_str(), life.cost);
      } else {
        std::printf("  %s: %s via %s, $%.2f/y, loss %.4g (%" PRId64
                    " trials) -> %s\n",
                    id.c_str(), life.status.c_str(),
                    life.source.empty() ? "?" : life.source.c_str(), life.cost,
                    life.loss, life.trials,
                    life.kept > 0    ? "kept"
                    : life.kept == 0 ? "dominated"
                                     : "unresolved");
      }
    }
    for (const std::string& line : frontier_summary) {
      std::printf("%s\n", line.c_str());
    }
  }

  // Anomaly sweep: patterns worth a human's attention, each named with the
  // evidence that triggered it.
  std::vector<std::string> anomalies;
  for (const auto& [unit, timeline] : units) {
    if (timeline.backoffs >= 3) {
      anomalies.push_back("retry storm: unit " + std::to_string(unit) +
                          " burned " + std::to_string(timeline.backoffs) +
                          " backoffs");
    }
    if (timeline.split) {
      anomalies.push_back("poison cell suspected: unit " +
                          std::to_string(unit) +
                          " exhausted retries and was split");
    }
    if (timeline.lost) {
      anomalies.push_back("lost cells: unit " + std::to_string(unit) +
                          " exhausted every attempt");
    }
  }
  for (const auto& [sweep, cold_runs] : computed_by_sweep) {
    if (cold_runs > 1) {
      anomalies.push_back("cache thrash: sweep " + sweep + " computed cold " +
                          std::to_string(cold_runs) +
                          " times (evicted between requests?)");
    }
  }
  if (anomalies.empty()) {
    std::printf("no anomalies detected\n");
  } else {
    std::printf("anomalies:\n");
    for (const std::string& anomaly : anomalies) {
      std::printf("  ! %s\n", anomaly.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace longstore

int main(int argc, char** argv) {
  try {
    return longstore::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_dump: %s\n", e.what());
    return 1;
  }
}
