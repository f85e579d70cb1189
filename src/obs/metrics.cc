#include "src/obs/metrics.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "src/util/json.h"

namespace longstore::obs {
namespace {

std::atomic<bool>& RuntimeFlag() {
  // Read the environment exactly once, before any record path sees the flag.
  static std::atomic<bool> enabled{[] {
    const char* off = std::getenv("LONGSTORE_TELEMETRY_OFF");
    return off == nullptr || off[0] == '\0' || off[0] == '0';
  }()};
  return enabled;
}

}  // namespace

bool Enabled() { return RuntimeFlag().load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  RuntimeFlag().store(on, std::memory_order_relaxed);
}

int64_t MonotonicNanos() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 +
         static_cast<int64_t>(ts.tv_nsec);
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // never destroyed: record
                                               // sites may outlive main
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    return *it->second;
  }
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return *it->second;
  }
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace(name, counter->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramState state;
    state.count = histogram->count();
    state.sum = histogram->sum();
    state.min = histogram->min();
    state.max = histogram->max();
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      state.buckets[i] = histogram->bucket(i);
    }
    snapshot.histograms.emplace(name, state);
  }
  return snapshot;
}

std::string Registry::SnapshotJson() const { return Snapshot().ToJson(); }

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"obs_version\":1,\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) {
      out += ',';
    }
    first = false;
    json::AppendEscaped(out, name);
    out += ':';
    json::AppendInt64(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, state] : histograms) {
    if (!first) {
      out += ',';
    }
    first = false;
    json::AppendEscaped(out, name);
    out += ":{\"count\":";
    json::AppendInt64(out, state.count);
    out += ",\"sum\":";
    json::AppendInt64(out, state.sum);
    out += ",\"min\":";
    json::AppendInt64(out, state.min);
    out += ",\"max\":";
    json::AppendInt64(out, state.max);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const int64_t n = state.buckets[i];
      if (n == 0) {
        continue;
      }
      if (!first_bucket) {
        out += ',';
      }
      first_bucket = false;
      out += '[';
      json::AppendInt64(out, i);
      out += ',';
      json::AppendInt64(out, n);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

namespace {

int64_t RequireInt64(const json::Value& object, const std::string& key,
                     const std::string& context) {
  const json::Value* field = object.Find(key);
  if (field == nullptr || field->kind != json::Value::Kind::kNumber) {
    json::Fail(context, "missing numeric field '" + key + "'");
  }
  return json::CheckedInt64(field->number, key, context);
}

}  // namespace

MetricsSnapshot MetricsSnapshot::FromJson(std::string_view text,
                                          const std::string& source) {
  const std::string context = source.empty() ? "MetricsSnapshot" : source;
  const json::Value root = json::Parse(text, context);
  if (root.kind != json::Value::Kind::kObject) {
    json::Fail(context, "snapshot document must be an object");
  }
  for (const auto& [key, value] : root.object) {
    if (key != "obs_version" && key != "counters" && key != "histograms") {
      json::Fail(context, "unknown key '" + key + "'");
    }
  }
  const int64_t version = RequireInt64(root, "obs_version", context);
  if (version != 1) {
    json::Fail(context,
               "unsupported obs_version " + std::to_string(version));
  }
  const json::Value* counters = root.Find("counters");
  const json::Value* histograms = root.Find("histograms");
  if (counters == nullptr || counters->kind != json::Value::Kind::kObject ||
      histograms == nullptr || histograms->kind != json::Value::Kind::kObject) {
    json::Fail(context, "'counters' and 'histograms' must be objects");
  }

  MetricsSnapshot snapshot;
  for (const auto& [name, value] : counters->object) {
    if (value.kind != json::Value::Kind::kNumber) {
      json::Fail(context, "counter '" + name + "' must be a number");
    }
    snapshot.counters.emplace(name,
                              json::CheckedInt64(value.number, name, context));
  }
  for (const auto& [name, value] : histograms->object) {
    if (value.kind != json::Value::Kind::kObject) {
      json::Fail(context, "histogram '" + name + "' must be an object");
    }
    for (const auto& [key, field] : value.object) {
      if (key != "count" && key != "sum" && key != "min" && key != "max" &&
          key != "buckets") {
        json::Fail(context, "histogram '" + name + "': unknown key '" + key + "'");
      }
    }
    HistogramState state;
    state.count = RequireInt64(value, "count", context);
    state.sum = RequireInt64(value, "sum", context);
    state.min = RequireInt64(value, "min", context);
    state.max = RequireInt64(value, "max", context);
    const json::Value* buckets = value.Find("buckets");
    if (buckets == nullptr || buckets->kind != json::Value::Kind::kArray) {
      json::Fail(context, "histogram '" + name + "': missing buckets array");
    }
    for (const json::Value& pair : buckets->array) {
      if (pair.kind != json::Value::Kind::kArray || pair.array.size() != 2 ||
          pair.array[0].kind != json::Value::Kind::kNumber ||
          pair.array[1].kind != json::Value::Kind::kNumber) {
        json::Fail(context,
                   "histogram '" + name + "': buckets must be [index,count] pairs");
      }
      const int index =
          json::CheckedInt(pair.array[0].number, "bucket index", context);
      if (index < 0 || index >= Histogram::kBuckets) {
        json::Fail(context, "histogram '" + name + "': bucket index out of range");
      }
      state.buckets[index] =
          json::CheckedInt64(pair.array[1].number, "bucket count", context);
    }
    snapshot.histograms.emplace(name, state);
  }
  return snapshot;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, state] : other.histograms) {
    HistogramState& mine = histograms[name];  // creates: names union
    if (state.count == 0) {
      continue;
    }
    mine.min = mine.count == 0 ? state.min : std::min(mine.min, state.min);
    mine.max = mine.count == 0 ? state.max : std::max(mine.max, state.max);
    mine.count += state.count;
    mine.sum += state.sum;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      mine.buckets[i] += state.buckets[i];
    }
  }
}

}  // namespace longstore::obs
