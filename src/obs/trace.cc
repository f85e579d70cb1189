#include "src/obs/trace.h"

#include <unistd.h>

#include <cstdio>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/json.h"

namespace longstore::obs {

TraceEvent& TraceEvent::Str(std::string_view key, std::string_view value) {
  fields_ += ',';
  json::AppendEscaped(fields_, std::string(key));
  fields_ += ':';
  json::AppendEscaped(fields_, std::string(value));
  return *this;
}

TraceEvent& TraceEvent::Int(std::string_view key, int64_t value) {
  fields_ += ',';
  json::AppendEscaped(fields_, std::string(key));
  fields_ += ':';
  json::AppendInt64(fields_, value);
  return *this;
}

TraceEvent& TraceEvent::Hex(std::string_view key, uint64_t value) {
  fields_ += ',';
  json::AppendEscaped(fields_, std::string(key));
  fields_ += ':';
  json::AppendUint64Hex(fields_, value);
  return *this;
}

TraceEvent& TraceEvent::Dbl(std::string_view key, double value) {
  fields_ += ',';
  json::AppendEscaped(fields_, std::string(key));
  fields_ += ':';
  json::AppendDouble(fields_, value);
  return *this;
}

TraceJournal::~TraceJournal() { Flush(nullptr); }

void TraceJournal::Open(std::string path) {
  if (!Enabled() || path.empty()) {
    return;
  }
  path_ = std::move(path);
  Emit(TraceEvent("journal_open").Int("schema", kTraceSchemaVersion));
}

void TraceJournal::Emit(const TraceEvent& event) {
  if (!active()) {
    return;
  }
  buffer_ += "{\"ts_ns\":";
  json::AppendInt64(buffer_, MonotonicNanos());
  buffer_ += ",\"trace_id\":";
  json::AppendUint64Hex(buffer_, trace_id_);
  buffer_ += ",\"event\":";
  json::AppendEscaped(buffer_, event.name());
  buffer_ += event.fields();
  buffer_ += "}\n";
  ++events_;
}

bool TraceJournal::Flush(std::string* error) {
  if (!active()) {
    return true;
  }
  return WriteFileAtomic(path_, buffer_, error);
}

bool WriteFileAtomic(const std::string& path, std::string_view bytes,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open '" + tmp + "' for writing";
    }
    return false;
  }
  const bool wrote =
      (bytes.empty() ||
       std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size()) &&
      std::fflush(file) == 0 && ::fsync(fileno(file)) == 0;
  if (std::fclose(file) != 0 || !wrote) {
    std::remove(tmp.c_str());
    if (error != nullptr) {
      *error = "failed to write '" + tmp + "'";
    }
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) {
      *error = "failed to rename '" + tmp + "' into place";
    }
    return false;
  }
  return true;
}

bool ReadWholeFile(const std::string& path, std::string* out, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "' for reading";
    }
    return false;
  }
  out->clear();
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, n);
  }
  const bool read = std::ferror(file) == 0;
  std::fclose(file);
  if (!read && error != nullptr) {
    *error = "failed to read '" + path + "'";
  }
  return read;
}

}  // namespace longstore::obs
