// Structured trace journal: an append-only JSONL event log for the fleet
// supervisor's unit state machine and the service's request lifecycles.
//
// One event per line:
//
//   {"ts_ns":<CLOCK_MONOTONIC ns>,"trace_id":"0x<sweep_id>",
//    "event":"<name>", ...event fields}
//
// ts_ns is monotonic (ordering and deltas within one process, not wall
// time); trace_id is the content-derived sweep_id of the run the events
// belong to ("0x0" before it is known), so interleaved journals from
// concurrent runs stay attributable. Schema rule (src/obs/README.md): the
// first line is a `journal_open` event carrying "schema":N; fields may be
// *added* to existing events without a schema bump, while renaming or
// re-typing one bumps N. tools/trace_dump reconstructs per-unit timelines
// from these files.
//
// Events buffer in memory and Flush() writes the whole journal atomically
// via the same tmp/fsync/rename discipline the shard workers use: a reader
// (or a crash) never sees a torn journal, only the previous complete one or
// none. Journals are telemetry — never inputs to results, checksums, or
// cache keys — and an inert (never Open()ed, or telemetry-off) journal
// records nothing at zero cost beyond a null/empty check.

#ifndef LONGSTORE_SRC_OBS_TRACE_H_
#define LONGSTORE_SRC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace longstore::obs {

inline constexpr int kTraceSchemaVersion = 1;

// Builder for one event's fields; pass to TraceJournal::Emit.
class TraceEvent {
 public:
  explicit TraceEvent(std::string_view name) : name_(name) {}

  TraceEvent& Str(std::string_view key, std::string_view value);
  TraceEvent& Int(std::string_view key, int64_t value);
  TraceEvent& Hex(std::string_view key, uint64_t value);
  TraceEvent& Dbl(std::string_view key, double value);

  const std::string& name() const { return name_; }
  const std::string& fields() const { return fields_; }

 private:
  std::string name_;
  std::string fields_;  // rendered ',"key":value' fragments
};

class TraceJournal {
 public:
  TraceJournal() = default;
  TraceJournal(const TraceJournal&) = delete;
  TraceJournal& operator=(const TraceJournal&) = delete;
  ~TraceJournal();  // best-effort Flush

  // Starts buffering events destined for `path` and records the
  // journal_open header. Inert when telemetry is disabled:
  // active() stays false and nothing is ever written.
  void Open(std::string path);
  bool active() const { return !path_.empty(); }

  // Stamps every subsequent event (the content-derived sweep_id).
  void SetTraceId(uint64_t trace_id) { trace_id_ = trace_id; }

  void Emit(const TraceEvent& event);

  // Atomically rewrites `path` with everything emitted so far. Idempotent;
  // returns false and fills `error` (if non-null) on I/O failure. No-op on
  // an inactive journal.
  bool Flush(std::string* error = nullptr);

  size_t event_count() const { return events_; }

 private:
  std::string path_;
  std::string buffer_;
  uint64_t trace_id_ = 0;
  size_t events_ = 0;
};

// Writes `bytes` to <path>.tmp, fsyncs, renames into place — the shared
// atomic-write path (shard workers, metrics snapshots, trace journals).
// After a crash at any point `path` holds the previous complete file or
// nothing, never a torn write.
bool WriteFileAtomic(const std::string& path, std::string_view bytes,
                     std::string* error);

// Reads all of `path` into `out` — the shared read path (shard and scenario
// files, worker results, metrics snapshots, trace journals). Returns false
// and fills `error` (if non-null, naming the file) when `path` cannot be
// opened or read.
bool ReadWholeFile(const std::string& path, std::string* out, std::string* error);

}  // namespace longstore::obs

#endif  // LONGSTORE_SRC_OBS_TRACE_H_
