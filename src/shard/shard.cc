#include "src/shard/shard.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/sweep/accumulator.h"
#include "src/sweep/batch_exec.h"
#include "src/util/json.h"

namespace longstore {
namespace {

constexpr char kSpecContext[] = "ShardSpec::FromJson";
constexpr char kResultContext[] = "ShardResult::FromJson";

const char* EstimandName(SweepOptions::Estimand estimand) {
  switch (estimand) {
    case SweepOptions::Estimand::kMttdl:
      return "mttdl";
    case SweepOptions::Estimand::kLossProbability:
      return "loss_probability";
    case SweepOptions::Estimand::kCensoredMttdl:
      return "censored_mttdl";
    case SweepOptions::Estimand::kWeightedLossProbability:
      return "weighted_loss_probability";
  }
  return "mttdl";
}

SweepOptions::Estimand ParseEstimand(const std::string& name,
                                     const std::string& context) {
  if (name == "mttdl") {
    return SweepOptions::Estimand::kMttdl;
  }
  if (name == "loss_probability") {
    return SweepOptions::Estimand::kLossProbability;
  }
  if (name == "censored_mttdl") {
    return SweepOptions::Estimand::kCensoredMttdl;
  }
  if (name == "weighted_loss_probability") {
    return SweepOptions::Estimand::kWeightedLossProbability;
  }
  json::Fail(context, "unknown estimand \"" + name + "\"");
}

const char* SeedModeName(SweepOptions::SeedMode mode) {
  switch (mode) {
    case SweepOptions::SeedMode::kPerCellDerived:
      return "per_cell_derived";
    case SweepOptions::SeedMode::kSharedRoot:
      return "shared_root";
    case SweepOptions::SeedMode::kScenarioDerived:
      return "scenario_derived";
    case SweepOptions::SeedMode::kCounterV1:
      return "counter_v1";
  }
  return "per_cell_derived";
}

SweepOptions::SeedMode ParseSeedMode(const std::string& name,
                                     const std::string& context) {
  if (name == "per_cell_derived") {
    return SweepOptions::SeedMode::kPerCellDerived;
  }
  if (name == "shared_root") {
    return SweepOptions::SeedMode::kSharedRoot;
  }
  if (name == "scenario_derived") {
    return SweepOptions::SeedMode::kScenarioDerived;
  }
  if (name == "counter_v1") {
    return SweepOptions::SeedMode::kCounterV1;
  }
  json::Fail(context, "unknown seed_mode \"" + name + "\"");
}

void AppendCoordinatesJson(std::string& out,
                           const std::vector<SweepCoordinate>& coordinates) {
  out += '[';
  for (size_t c = 0; c < coordinates.size(); ++c) {
    if (c > 0) {
      out += ',';
    }
    out += "{\"axis\":";
    json::AppendEscaped(out, coordinates[c].axis);
    out += ",\"label\":";
    json::AppendEscaped(out, coordinates[c].label);
    out += ",\"value\":";
    json::AppendDouble(out, coordinates[c].value);
    out += '}';
  }
  out += ']';
}

void AppendAxesJson(std::string& out, const std::vector<std::string>& axes) {
  out += '[';
  for (size_t a = 0; a < axes.size(); ++a) {
    if (a > 0) {
      out += ',';
    }
    json::AppendEscaped(out, axes[a]);
  }
  out += ']';
}

std::vector<std::string> ReadAxes(json::ObjectReader& reader,
                                  const std::string& context) {
  std::vector<std::string> axes;
  for (const json::Value& axis : reader.GetArray("axes")) {
    if (axis.kind != json::Value::Kind::kString) {
      json::Fail(context, "axes entries must be strings");
    }
    axes.push_back(axis.string);
  }
  return axes;
}

// Coordinates must mirror the axis list one to one and in order — that is
// the invariant the table/CSV emitters rely on to build rectangular rows.
std::vector<SweepCoordinate> ReadCoordinates(json::ObjectReader& cell,
                                             const std::vector<std::string>& axes,
                                             size_t cell_index,
                                             const std::string& context) {
  std::vector<SweepCoordinate> coordinates;
  const std::vector<json::Value>& entries = cell.GetArray("coordinates");
  if (entries.size() != axes.size()) {
    json::Fail(context, "cell " + std::to_string(cell_index) + " has " +
                            std::to_string(entries.size()) +
                            " coordinates for " + std::to_string(axes.size()) +
                            " axes");
  }
  for (size_t c = 0; c < entries.size(); ++c) {
    json::ObjectReader coordinate(entries[c], "coordinate", context);
    SweepCoordinate out;
    out.axis = coordinate.GetString("axis");
    out.label = coordinate.GetString("label");
    out.value = coordinate.GetNumber("value");
    coordinate.Finish();
    if (out.axis != axes[c]) {
      json::Fail(context, "cell " + std::to_string(cell_index) + " coordinate " +
                              std::to_string(c) + " names axis \"" + out.axis +
                              "\" but the shard's axis " + std::to_string(c) +
                              " is \"" + axes[c] + "\"");
    }
    coordinates.push_back(std::move(out));
  }
  return coordinates;
}

// Shared header fields of both shard document bodies.
struct ShardHeader {
  int shard_index = 0;
  int shard_count = 1;
  size_t total_cells = 0;
  uint64_t sweep_id = 0;
};

void AppendHeaderJson(std::string& out, int shard_index, int shard_count,
                      size_t total_cells, uint64_t sweep_id) {
  out += "{\"shard_index\":";
  json::AppendInt64(out, shard_index);
  out += ",\"shard_count\":";
  json::AppendInt64(out, shard_count);
  out += ",\"total_cells\":";
  json::AppendInt64(out, static_cast<int64_t>(total_cells));
  out += ",\"sweep_id\":";
  json::AppendUint64Hex(out, sweep_id);
}

// Verifies the envelope and its version (this build's, or the compatible
// subset) and returns the body to parse.
std::string_view OpenShardDocument(std::string_view text, const std::string& context,
                                   const std::string& source) {
  const json::ChecksummedDocument doc =
      json::OpenChecksummedDocument(text, "shard_version", context, source);
  if (doc.version != kShardProtocolVersion && doc.version != kShardCompatVersion) {
    // Version 2 is a strict subset of version 3 (no ranges, no fragments),
    // so in-flight version-2 documents keep parsing.
    const std::string what =
        "unsupported shard_version " + std::to_string(doc.version) +
        " in a checksummed envelope (this build speaks " +
        std::to_string(kShardProtocolVersion) + " and accepts " +
        std::to_string(kShardCompatVersion) + ")";
    json::Fail(context, source.empty() ? what : "[" + source + "] " + what);
  }
  return doc.body;
}

ShardHeader ReadHeader(json::ObjectReader& reader, const std::string& context) {
  ShardHeader header;
  header.shard_count = reader.GetInt("shard_count");
  if (header.shard_count < 1) {
    json::Fail(context, "shard_count must be >= 1");
  }
  header.shard_index = reader.GetInt("shard_index");
  if (header.shard_index < 0 || header.shard_index >= header.shard_count) {
    json::Fail(context, "shard_index " + std::to_string(header.shard_index) +
                            " is outside [0, shard_count)");
  }
  const int64_t total = reader.GetInt64("total_cells");
  if (total < 1) {
    json::Fail(context, "total_cells must be >= 1");
  }
  header.total_cells = static_cast<size_t>(total);
  header.sweep_id = reader.GetUint64Hex("sweep_id");
  return header;
}

// Re-throws a schema/parse error with the source document named, unless the
// message already names it (OpenShardDocument tags its own).
// Keeps json::IntegrityError's type intact for the retryable/fatal split.
[[noreturn]] void RethrowTagged(const std::string& source) {
  try {
    throw;
  } catch (const json::IntegrityError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    if (source.empty() || what.find("[" + source + "]") != std::string::npos) {
      throw;
    }
    throw std::invalid_argument("[" + source + "] " + what);
  }
}

// Tracks which grid indices this document has already claimed.
class CellIndexSet {
 public:
  CellIndexSet(size_t total_cells, std::string context)
      : seen_(total_cells, false), context_(std::move(context)) {}

  size_t Claim(int64_t index) {
    if (index < 0 || static_cast<size_t>(index) >= seen_.size()) {
      json::Fail(context_, "cell index " + std::to_string(index) +
                               " is outside [0, total_cells)");
    }
    const size_t i = static_cast<size_t>(index);
    if (seen_[i]) {
      json::Fail(context_, "duplicate cell index " + std::to_string(index));
    }
    seen_[i] = true;
    return i;
  }

 private:
  std::vector<bool> seen_;
  std::string context_;
};

std::string ListIndices(const std::vector<size_t>& indices) {
  std::string out;
  const size_t shown = std::min<size_t>(indices.size(), 8);
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += std::to_string(indices[i]);
  }
  if (indices.size() > shown) {
    out += ", ... (" + std::to_string(indices.size()) + " total)";
  }
  return out;
}

// The sweep-level option fields, shared verbatim between the shard spec
// body and the sweep-identity string ComputeSweepId hashes.
void AppendOptionsJson(std::string& out, const SweepOptions& options) {
  out += "\"estimand\":\"";
  out += EstimandName(options.estimand);
  out += "\",\"seed_mode\":\"";
  out += SeedModeName(options.seed_mode);
  out += "\",\"mission_hours\":";
  json::AppendDouble(out, options.mission.hours());
  out += ",\"window_hours\":";
  json::AppendDouble(out, options.window.hours());
  out += ",\"bias\":{\"theta_visible\":";
  json::AppendDouble(out, options.bias.theta_visible);
  out += ",\"theta_latent\":";
  json::AppendDouble(out, options.bias.theta_latent);
  out += ",\"tilt_probability\":";
  json::AppendDouble(out, options.bias.tilt_probability);
  out += ",\"force_probability\":";
  json::AppendDouble(out, options.bias.force_probability);
  out += "},\"mc\":{\"trials\":";
  json::AppendInt64(out, options.mc.trials);
  out += ",\"seed\":";
  json::AppendUint64Hex(out, options.mc.seed);
  out += ",\"max_trial_time_hours\":";
  json::AppendDouble(out, options.mc.max_trial_time.hours());
  out += ",\"confidence\":";
  json::AppendDouble(out, options.mc.confidence);
  out += "},\"adaptive\":";
  out += options.adaptive ? "true" : "false";
  out += ",\"relative_precision\":";
  json::AppendDouble(out, options.relative_precision);
  out += ",\"max_trials\":";
  json::AppendInt64(out, options.max_trials);
}

}  // namespace

// --- sweep identity --------------------------------------------------------

uint64_t ComputeSweepId(const std::vector<std::string>& axis_names,
                        const SweepOptions& options,
                        const std::vector<SweepSpec::Cell>& cells) {
  std::string id;
  id.reserve(256 + cells.size() * 64);
  id += "{\"total_cells\":";
  json::AppendInt64(id, static_cast<int64_t>(cells.size()));
  id += ',';
  // Lane count shapes wall clock, never results; it must not move the id.
  SweepOptions canonical = options;
  canonical.mc.threads = 0;
  AppendOptionsJson(id, canonical);
  id += ",\"axes\":";
  AppendAxesJson(id, axis_names);
  id += ",\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      id += ',';
    }
    id += "{\"index\":";
    json::AppendInt64(id, static_cast<int64_t>(cells[i].index));
    id += ",\"label\":";
    json::AppendEscaped(id, cells[i].label);
    id += ",\"scenario\":";
    json::AppendUint64Hex(id, cells[i].scenario.CanonicalHash());
    id += '}';
  }
  id += "]}";
  return json::Fnv1a64(id);
}

// --- ShardSpec -------------------------------------------------------------

std::string ShardSpec::ToJson() const {
  if (!ranges.empty() && ranges.size() != cells.size()) {
    throw std::invalid_argument(
        "ShardSpec::ToJson: ranges must be empty or match cells one to one");
  }
  std::string body;
  body.reserve(512 + cells.size() * 1024);
  AppendHeaderJson(body, shard_index, shard_count, total_cells, sweep_id);
  body += ',';
  AppendOptionsJson(body, options);
  body += ",\"axes\":";
  AppendAxesJson(body, axis_names);
  body += ",\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepSpec::Cell& cell = cells[i];
    if (i > 0) {
      body += ',';
    }
    body += "{\"index\":";
    json::AppendInt64(body, static_cast<int64_t>(cell.index));
    body += ",\"label\":";
    json::AppendEscaped(body, cell.label);
    body += ",\"coordinates\":";
    AppendCoordinatesJson(body, cell.coordinates);
    // A partial cell (version 3) carries its trial range; whole cells omit
    // the key so whole-cell documents keep the version-2 body shape.
    if (!ranges.empty() && ranges[i].end >= 0) {
      body += ",\"range\":{\"begin\":";
      json::AppendInt64(body, ranges[i].begin);
      body += ",\"end\":";
      json::AppendInt64(body, ranges[i].end);
      body += '}';
    }
    // The scenario's canonical JSON, spliced verbatim: the scenario
    // subtree's bytes — and therefore CanonicalHash and kScenarioDerived
    // seeds — are exactly the driver's.
    body += ",\"scenario\":";
    body += cell.scenario.ToJson();
    body += '}';
  }
  body += "]}";
  return json::WrapChecksummedBody("shard_version", kShardProtocolVersion, body);
}

ShardSpec ShardSpec::FromJson(std::string_view text, const std::string& source) {
  try {
    return FromJsonUntagged(text, source);
  } catch (...) {
    RethrowTagged(source);
  }
}

ShardSpec ShardSpec::FromJsonUntagged(std::string_view text,
                                      const std::string& source) {
  const json::Value root =
      json::Parse(OpenShardDocument(text, kSpecContext, source), kSpecContext);
  json::ObjectReader reader(root, "shard", kSpecContext);
  const ShardHeader header = ReadHeader(reader, kSpecContext);

  ShardSpec shard;
  shard.shard_index = header.shard_index;
  shard.shard_count = header.shard_count;
  shard.total_cells = header.total_cells;
  shard.sweep_id = header.sweep_id;
  shard.options.estimand = ParseEstimand(reader.GetString("estimand"), kSpecContext);
  shard.options.seed_mode = ParseSeedMode(reader.GetString("seed_mode"), kSpecContext);
  shard.options.mission = Duration::Hours(reader.GetNumber("mission_hours"));
  shard.options.window = Duration::Hours(reader.GetNumber("window_hours"));
  {
    json::ObjectReader bias(reader.GetObject("bias"), "bias", kSpecContext);
    shard.options.bias.theta_visible = bias.GetNumber("theta_visible");
    shard.options.bias.theta_latent = bias.GetNumber("theta_latent");
    shard.options.bias.tilt_probability = bias.GetNumber("tilt_probability");
    shard.options.bias.force_probability = bias.GetNumber("force_probability");
    bias.Finish();
  }
  {
    json::ObjectReader mc(reader.GetObject("mc"), "mc", kSpecContext);
    shard.options.mc.trials = mc.GetInt64("trials");
    shard.options.mc.seed = mc.GetUint64Hex("seed");
    shard.options.mc.max_trial_time = Duration::Hours(mc.GetNumber("max_trial_time_hours"));
    shard.options.mc.confidence = mc.GetNumber("confidence");
    mc.Finish();
  }
  shard.options.adaptive = reader.GetBool("adaptive");
  shard.options.relative_precision = reader.GetNumber("relative_precision");
  shard.options.max_trials = reader.GetInt64("max_trials");
  shard.axis_names = ReadAxes(reader, kSpecContext);

  CellIndexSet seen(header.total_cells, kSpecContext);
  bool any_range = false;
  for (const json::Value& entry : reader.GetArray("cells")) {
    json::ObjectReader cell(entry, "cell", kSpecContext);
    SweepSpec::Cell out;
    out.index = seen.Claim(cell.GetInt64("index"));
    out.label = cell.GetString("label");
    out.coordinates = ReadCoordinates(cell, shard.axis_names, out.index, kSpecContext);
    ShardCellRange range;
    if (entry.Find("range") != nullptr) {
      json::ObjectReader r(cell.GetObject("range"), "range", kSpecContext);
      range.begin = r.GetInt64("begin");
      range.end = r.GetInt64("end");
      r.Finish();
      if (range.begin < 0 || range.end <= range.begin) {
        json::Fail(kSpecContext, "cell " + std::to_string(out.index) +
                                     " has an invalid trial range [" +
                                     std::to_string(range.begin) + ", " +
                                     std::to_string(range.end) + ")");
      }
      any_range = true;
    }
    out.scenario = Scenario::FromJsonValue(cell.GetObject("scenario"));
    cell.Finish();
    shard.cells.push_back(std::move(out));
    shard.ranges.push_back(range);
  }
  if (!any_range) {
    shard.ranges.clear();  // whole-cell documents carry no range vector
  }
  reader.Finish();
  return shard;
}

// --- ShardPlan -------------------------------------------------------------

ShardPlan::ShardPlan(const SweepSpec& spec, const SweepOptions& options,
                     int shard_count)
    : ShardPlan(spec.AxisNames(), options, spec.BuildCells(), shard_count) {}

ShardPlan::ShardPlan(std::vector<std::string> axis_names,
                     const SweepOptions& options,
                     std::vector<SweepSpec::Cell> cells, int shard_count) {
  if (shard_count < 1) {
    throw std::invalid_argument("ShardPlan: shard_count must be >= 1");
  }
  ValidateSweepOptions(options);
  if (cells.empty()) {
    throw std::invalid_argument("ShardPlan: the sweep has no cells");
  }
  // Fail in the driver, with the driver's clean message, rather than in K
  // worker processes at once.
  ValidateSweepCells(cells);

  axis_names_ = std::move(axis_names);
  total_cells_ = cells.size();
  const uint64_t sweep_id = ComputeSweepId(axis_names_, options, cells);
  shards_.resize(static_cast<size_t>(shard_count));
  for (int k = 0; k < shard_count; ++k) {
    ShardSpec& shard = shards_[static_cast<size_t>(k)];
    shard.shard_index = k;
    shard.shard_count = shard_count;
    shard.total_cells = total_cells_;
    shard.sweep_id = sweep_id;
    shard.axis_names = axis_names_;
    shard.options = options;
    // Lane count is the worker's own business (and never changes results).
    shard.options.mc.threads = 0;
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    shards_[i % static_cast<size_t>(shard_count)].cells.push_back(std::move(cells[i]));
  }
}

// --- RunShard --------------------------------------------------------------

ShardResult RunShard(const ShardSpec& shard, WorkerPool* pool) {
  ValidateSweepOptions(shard.options);
  ValidateSweepCells(shard.cells);
  if (!shard.ranges.empty() && shard.ranges.size() != shard.cells.size()) {
    throw std::invalid_argument(
        "RunShard: ranges must be empty or match cells one to one");
  }
  WorkerPool& exec_pool = pool != nullptr ? *pool : WorkerPool::Shared();

  ShardResult result;
  result.shard_index = shard.shard_index;
  result.shard_count = shard.shard_count;
  result.total_cells = shard.total_cells;
  result.sweep_id = shard.sweep_id;
  result.estimand = shard.options.estimand;
  result.confidence = shard.options.mc.confidence;
  result.axis_names = shard.axis_names;
  if (shard.ranges.empty()) {
    result.cells = RunSweepCells(exec_pool, shard.cells, shard.options);
    return result;
  }

  // Split whole cells (classic execution) from partial trial ranges, which
  // run as raw per-block accumulators so the coordinator can reassemble a
  // byte-identical cell from any block-aligned tiling.
  std::vector<SweepSpec::Cell> whole;
  std::vector<size_t> ranged;
  for (size_t i = 0; i < shard.cells.size(); ++i) {
    if (shard.ranges[i].end < 0) {
      whole.push_back(shard.cells[i]);
    } else {
      ranged.push_back(i);
    }
  }
  if (!ranged.empty()) {
    if (shard.options.seed_mode != SweepOptions::SeedMode::kCounterV1) {
      throw std::invalid_argument(
          "RunShard: partial trial ranges require seed_mode counter_v1 (any "
          "other mode cannot reproduce a trial's stream from its index)");
    }
    if (shard.options.adaptive) {
      throw std::invalid_argument(
          "RunShard: partial trial ranges require non-adaptive execution; "
          "adaptive continuation is coordinated by the driver");
    }
  }
  if (!whole.empty()) {
    result.cells = RunSweepCells(exec_pool, whole, shard.options);
  }
  for (const size_t i : ranged) {
    const SweepSpec::Cell& cell = shard.cells[i];
    const ShardCellRange& range = shard.ranges[i];
    if (range.end > shard.options.mc.trials) {
      throw std::invalid_argument(
          "RunShard: cell " + std::to_string(cell.index) + " trial range [" +
          std::to_string(range.begin) + ", " + std::to_string(range.end) +
          ") extends past mc.trials = " +
          std::to_string(shard.options.mc.trials));
    }
    ShardCellFragment fragment;
    fragment.index = cell.index;
    fragment.label = cell.label;
    fragment.coordinates = cell.coordinates;
    fragment.trial_begin = range.begin;
    fragment.trial_end = range.end;
    fragment.cell_trials = shard.options.mc.trials;
    fragment.blocks = RunCellTrialRange(exec_pool, cell, shard.options,
                                        range.begin, range.end);
    result.fragments.push_back(std::move(fragment));
  }
  return result;
}

// --- ShardResult -----------------------------------------------------------

std::string ShardResult::ToJson() const {
  std::string body;
  body.reserve(512 + cells.size() * 1024);
  AppendHeaderJson(body, shard_index, shard_count, total_cells, sweep_id);
  body += ",\"estimand\":\"";
  body += EstimandName(estimand);
  body += "\",\"confidence\":";
  json::AppendDouble(body, confidence);
  body += ",\"axes\":";
  AppendAxesJson(body, axis_names);
  body += ",\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCellExecution& cell = cells[i];
    if (i > 0) {
      body += ',';
    }
    body += "{\"index\":";
    json::AppendInt64(body, static_cast<int64_t>(cell.index));
    body += ",\"label\":";
    json::AppendEscaped(body, cell.label);
    body += ",\"coordinates\":";
    AppendCoordinatesJson(body, cell.coordinates);
    body += ",\"trials\":";
    json::AppendInt64(body, cell.trials);
    body += ",\"rounds\":";
    json::AppendInt64(body, cell.rounds);
    body += ",\"half_width_history\":[";
    for (size_t h = 0; h < cell.half_width_history.size(); ++h) {
      if (h > 0) {
        body += ',';
      }
      json::AppendDouble(body, cell.half_width_history[h]);
    }
    body += "],\"accumulator\":";
    AppendTrialAccumulatorJson(body, cell.acc);
    body += '}';
  }
  body += ']';
  // Partial-cell results (version 3) ride in a separate array; whole-cell
  // documents omit the key, keeping the version-2 body shape byte-for-byte.
  if (!fragments.empty()) {
    body += ",\"fragments\":[";
    for (size_t i = 0; i < fragments.size(); ++i) {
      const ShardCellFragment& fragment = fragments[i];
      if (i > 0) {
        body += ',';
      }
      body += "{\"index\":";
      json::AppendInt64(body, static_cast<int64_t>(fragment.index));
      body += ",\"label\":";
      json::AppendEscaped(body, fragment.label);
      body += ",\"coordinates\":";
      AppendCoordinatesJson(body, fragment.coordinates);
      body += ",\"trial_begin\":";
      json::AppendInt64(body, fragment.trial_begin);
      body += ",\"trial_end\":";
      json::AppendInt64(body, fragment.trial_end);
      body += ",\"cell_trials\":";
      json::AppendInt64(body, fragment.cell_trials);
      body += ",\"blocks\":[";
      for (size_t b = 0; b < fragment.blocks.size(); ++b) {
        if (b > 0) {
          body += ',';
        }
        AppendTrialAccumulatorJson(body, fragment.blocks[b]);
      }
      body += "]}";
    }
    body += ']';
  }
  body += '}';
  return json::WrapChecksummedBody("shard_version", kShardProtocolVersion, body);
}

ShardResult ShardResult::FromJson(std::string_view text, const std::string& source) {
  try {
    return FromJsonUntagged(text, source);
  } catch (...) {
    RethrowTagged(source);
  }
}

ShardResult ShardResult::FromJsonUntagged(std::string_view text,
                                          const std::string& source) {
  const json::Value root =
      json::Parse(OpenShardDocument(text, kResultContext, source), kResultContext);
  json::ObjectReader reader(root, "shard result", kResultContext);
  const ShardHeader header = ReadHeader(reader, kResultContext);

  ShardResult result;
  result.shard_index = header.shard_index;
  result.shard_count = header.shard_count;
  result.total_cells = header.total_cells;
  result.sweep_id = header.sweep_id;
  result.estimand = ParseEstimand(reader.GetString("estimand"), kResultContext);
  result.confidence = reader.GetNumber("confidence");
  result.axis_names = ReadAxes(reader, kResultContext);

  CellIndexSet seen(header.total_cells, kResultContext);
  for (const json::Value& entry : reader.GetArray("cells")) {
    json::ObjectReader cell(entry, "cell", kResultContext);
    SweepCellExecution out;
    out.index = seen.Claim(cell.GetInt64("index"));
    out.label = cell.GetString("label");
    out.coordinates = ReadCoordinates(cell, result.axis_names, out.index, kResultContext);
    out.trials = cell.GetInt64("trials");
    if (out.trials < 0) {
      json::Fail(kResultContext, "cell " + std::to_string(out.index) +
                                     " has a negative trial count");
    }
    out.rounds = cell.GetInt("rounds");
    if (out.rounds < 0) {
      json::Fail(kResultContext, "cell " + std::to_string(out.index) +
                                     " has a negative round count");
    }
    for (const json::Value& half_width : cell.GetArray("half_width_history")) {
      // Accept the "inf"/"-inf"/"nan" string spellings like every other
      // double in the protocol: an unconverged cell can legitimately report
      // an infinite half-width, and the emitter writes it as a string.
      if (half_width.kind == json::Value::Kind::kString) {
        if (half_width.string == "inf") {
          out.half_width_history.push_back(std::numeric_limits<double>::infinity());
          continue;
        }
        if (half_width.string == "-inf") {
          out.half_width_history.push_back(-std::numeric_limits<double>::infinity());
          continue;
        }
        if (half_width.string == "nan") {
          out.half_width_history.push_back(std::numeric_limits<double>::quiet_NaN());
          continue;
        }
      }
      if (half_width.kind != json::Value::Kind::kNumber) {
        json::Fail(kResultContext, "half_width_history entries must be numbers");
      }
      out.half_width_history.push_back(half_width.number);
    }
    out.acc = TrialAccumulatorFromJsonValue(cell.GetObject("accumulator"),
                                            kResultContext);
    cell.Finish();
    result.cells.push_back(std::move(out));
  }
  // "fragments" is optional (absent from version-2 documents and from
  // whole-cell version-3 documents). A cell must arrive either whole or as
  // fragments, never both, so fragment indices share the cells' claim set.
  if (root.Find("fragments") != nullptr) {
    for (const json::Value& entry : reader.GetArray("fragments")) {
      json::ObjectReader frag(entry, "fragment", kResultContext);
      ShardCellFragment out;
      out.index = seen.Claim(frag.GetInt64("index"));
      out.label = frag.GetString("label");
      out.coordinates =
          ReadCoordinates(frag, result.axis_names, out.index, kResultContext);
      out.trial_begin = frag.GetInt64("trial_begin");
      out.trial_end = frag.GetInt64("trial_end");
      out.cell_trials = frag.GetInt64("cell_trials");
      if (out.cell_trials < 1 || out.trial_begin < 0 ||
          out.trial_end <= out.trial_begin || out.trial_end > out.cell_trials) {
        json::Fail(kResultContext,
                   "cell " + std::to_string(out.index) +
                       " fragment range [" + std::to_string(out.trial_begin) +
                       ", " + std::to_string(out.trial_end) +
                       ") is invalid for " + std::to_string(out.cell_trials) +
                       " trials");
      }
      for (const json::Value& block : frag.GetArray("blocks")) {
        out.blocks.push_back(TrialAccumulatorFromJsonValue(block, kResultContext));
      }
      const int64_t expected_blocks =
          (out.trial_end - 1) / kTrialBlockSize -
          out.trial_begin / kTrialBlockSize + 1;
      if (static_cast<int64_t>(out.blocks.size()) != expected_blocks) {
        json::Fail(kResultContext,
                   "cell " + std::to_string(out.index) + " fragment [" +
                       std::to_string(out.trial_begin) + ", " +
                       std::to_string(out.trial_end) + ") carries " +
                       std::to_string(out.blocks.size()) +
                       " blocks; the aligned partition has " +
                       std::to_string(expected_blocks));
      }
      frag.Finish();
      result.fragments.push_back(std::move(out));
    }
  }
  reader.Finish();
  return result;
}

// --- ShardMerger -----------------------------------------------------------

namespace {

// "shard 3 (k3.result.json)" / "shard 3" — the retry-log-actionable name of
// a result document, used in every merger failure message.
std::string DescribeShard(int shard_index, const std::string& source) {
  std::string out = "shard " + std::to_string(shard_index);
  if (!source.empty()) {
    out += " (" + source + ")";
  }
  return out;
}

}  // namespace

void ShardMerger::Add(ShardResult result, const std::string& source) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("ShardMerger: " + what);
  };
  const std::string who = DescribeShard(result.shard_index, source);
  if (result.total_cells < 1) {
    fail(who + ": total_cells must be >= 1");
  }
  if (result.shard_count < 1 || result.shard_index < 0 ||
      result.shard_index >= result.shard_count) {
    fail(who + ": shard_index " + std::to_string(result.shard_index) +
         " is outside [0, shard_count)");
  }
  // Detach the payload before any header bookkeeping so keeping the first
  // result's header never copies its (potentially large) cell vector.
  std::vector<SweepCellExecution> incoming = std::move(result.cells);
  result.cells.clear();
  std::vector<ShardCellFragment> incoming_fragments = std::move(result.fragments);
  result.fragments.clear();
  if (!have_header_) {
    have_header_ = true;
    header_ = std::move(result);
    first_source_ = source;
    cells_.resize(header_.total_cells);
    cell_sources_.resize(header_.total_cells);
    pending_fragments_.resize(header_.total_cells);
  } else {
    const std::string first = DescribeShard(header_.shard_index, first_source_);
    if (result.estimand != header_.estimand) {
      fail(who + " was run with a different estimand than " + first);
    }
    if (result.confidence != header_.confidence) {
      fail(who + " was run at a different confidence than " + first);
    }
    if (result.total_cells != header_.total_cells) {
      fail(who + " claims " + std::to_string(result.total_cells) +
           " total cells, " + first + " " + std::to_string(header_.total_cells));
    }
    // Documents prove membership by sweep identity; shard_count is
    // provenance only (a fleet driver that re-partitions failed shards
    // legitimately emits documents with differing counts).
    if (result.sweep_id != header_.sweep_id) {
      fail(who + " belongs to a different sweep than " + first +
           " (sweep_id mismatch)");
    }
    if (result.axis_names != header_.axis_names) {
      fail(who + " has a different axis list than " + first);
    }
  }
  for (SweepCellExecution& cell : incoming) {
    if (cell.index >= cells_.size()) {
      fail(who + ": cell index " + std::to_string(cell.index) +
           " is outside [0, total_cells)");
    }
    if (cells_[cell.index].has_value()) {
      fail("cell " + std::to_string(cell.index) + " (\"" + cell.label +
           "\") arrived twice: first from " + cell_sources_[cell.index] +
           ", again from " + who +
           "; each cell must be owned by exactly one shard");
    }
    if (!pending_fragments_[cell.index].empty()) {
      fail("cell " + std::to_string(cell.index) + " (\"" + cell.label +
           "\") arrived whole from " + who +
           " after fragments of it were already received; a cell is owned "
           "either whole or as a fragment tiling, never both");
    }
    cells_[cell.index] = std::move(cell);
    cell_sources_[cell.index] = who;
    ++received_;
  }
  for (ShardCellFragment& fragment : incoming_fragments) {
    AddFragment(std::move(fragment), who);
  }
}

void ShardMerger::AddFragment(ShardCellFragment fragment, const std::string& who) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("ShardMerger: " + what);
  };
  if (fragment.index >= cells_.size()) {
    fail(who + ": fragment cell index " + std::to_string(fragment.index) +
         " is outside [0, total_cells)");
  }
  if (cells_[fragment.index].has_value()) {
    fail("cell " + std::to_string(fragment.index) + " (\"" + fragment.label +
         "\") received a fragment from " + who +
         " after the whole cell arrived from " + cell_sources_[fragment.index] +
         "; a cell is owned either whole or as a fragment tiling, never both");
  }
  if (fragment.cell_trials < 1 || fragment.trial_begin < 0 ||
      fragment.trial_end <= fragment.trial_begin ||
      fragment.trial_end > fragment.cell_trials) {
    fail(who + ": cell " + std::to_string(fragment.index) +
         " fragment range [" + std::to_string(fragment.trial_begin) + ", " +
         std::to_string(fragment.trial_end) + ") is invalid for " +
         std::to_string(fragment.cell_trials) + " trials");
  }
  // Interior tiling boundaries must land on block edges: the canonical fold
  // is per 256-trial block, and an unaligned seam would split a block's
  // Welford accumulation differently than single-process execution.
  if (fragment.trial_begin % kTrialBlockSize != 0 ||
      (fragment.trial_end % kTrialBlockSize != 0 &&
       fragment.trial_end != fragment.cell_trials)) {
    fail(who + ": cell " + std::to_string(fragment.index) + " fragment [" +
         std::to_string(fragment.trial_begin) + ", " +
         std::to_string(fragment.trial_end) +
         ") is not aligned to the " + std::to_string(kTrialBlockSize) +
         "-trial block partition");
  }
  const int64_t expected_blocks = (fragment.trial_end - 1) / kTrialBlockSize -
                                  fragment.trial_begin / kTrialBlockSize + 1;
  if (static_cast<int64_t>(fragment.blocks.size()) != expected_blocks) {
    fail(who + ": cell " + std::to_string(fragment.index) + " fragment [" +
         std::to_string(fragment.trial_begin) + ", " +
         std::to_string(fragment.trial_end) + ") carries " +
         std::to_string(fragment.blocks.size()) + " blocks, expected " +
         std::to_string(expected_blocks));
  }
  std::vector<ShardCellFragment>& parts = pending_fragments_[fragment.index];
  for (const ShardCellFragment& other : parts) {
    if (other.label != fragment.label ||
        other.cell_trials != fragment.cell_trials) {
      fail("cell " + std::to_string(fragment.index) + ": fragment from " +
           who + " disagrees with an earlier fragment about the cell's label "
           "or total trial count");
    }
    if (fragment.trial_begin < other.trial_end &&
        other.trial_begin < fragment.trial_end) {
      fail("cell " + std::to_string(fragment.index) + ": fragment [" +
           std::to_string(fragment.trial_begin) + ", " +
           std::to_string(fragment.trial_end) + ") from " + who +
           " overlaps fragment [" + std::to_string(other.trial_begin) + ", " +
           std::to_string(other.trial_end) + ")");
    }
  }
  parts.push_back(std::move(fragment));

  // Assemble the moment the tiling is complete. Fragments are pairwise
  // disjoint subranges of [0, cell_trials), so covering exactly cell_trials
  // trials means they tile the whole cell.
  const int64_t cell_trials = parts.front().cell_trials;
  int64_t covered = 0;
  for (const ShardCellFragment& part : parts) {
    covered += part.trial_end - part.trial_begin;
  }
  if (covered != cell_trials) {
    return;
  }
  std::sort(parts.begin(), parts.end(),
            [](const ShardCellFragment& a, const ShardCellFragment& b) {
              return a.trial_begin < b.trial_begin;
            });
  // Fold the per-block accumulators in ascending trial order — the exact
  // fold a single process performs — so the assembled cell is byte-identical
  // to unsharded non-adaptive execution (trials = cell total, one round, no
  // half-width history).
  SweepCellExecution out;
  out.index = parts.front().index;
  out.label = parts.front().label;
  out.coordinates = std::move(parts.front().coordinates);
  out.trials = cell_trials;
  out.rounds = 1;
  for (const ShardCellFragment& part : parts) {
    for (const TrialAccumulator& block : part.blocks) {
      out.acc.MergeFrom(block);
    }
  }
  const size_t index = out.index;
  cells_[index] = std::move(out);
  cell_sources_[index] = who;  // the completing contributor
  pending_fragments_[index].clear();
  ++received_;
}

void ShardMerger::AddJson(std::string_view json, const std::string& source) {
  Add(ShardResult::FromJson(json, source), source);
}

bool ShardMerger::complete() const {
  return have_header_ && received_ == cells_.size();
}

std::vector<size_t> ShardMerger::MissingCells() const {
  std::vector<size_t> missing;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (!cells_[i].has_value()) {
      missing.push_back(i);
    }
  }
  return missing;
}

SweepResult ShardMerger::Finish() const {
  if (!have_header_) {
    throw std::invalid_argument("ShardMerger: no shard results were added");
  }
  if (!complete()) {
    throw std::invalid_argument("ShardMerger: incomplete merge; missing cells " +
                                ListIndices(MissingCells()));
  }
  // Cells were slotted by grid index, so this fold is independent of both
  // the partition and the arrival order — the property the merge tests pin.
  // The copy (rather than a move) keeps Finish const and re-callable; cell
  // payloads are small (a few hundred bytes each), so even huge grids pay
  // little.
  std::vector<SweepCellExecution> executions;
  executions.reserve(cells_.size());
  for (const std::optional<SweepCellExecution>& cell : cells_) {
    executions.push_back(*cell);
  }
  return FinalizeSweepCells(std::move(executions), header_.axis_names,
                            header_.estimand, header_.confidence);
}

SweepResult ShardMerger::FinishPartial() const {
  if (!have_header_) {
    throw std::invalid_argument("ShardMerger: no shard results were added");
  }
  // Like Finish(), but tolerate gaps: only the cells that actually arrived
  // are finalized. They keep their true grid indices, so each present cell
  // produces exactly the bytes it would in the complete merge and the
  // absent indices stay reportable via MissingCells().
  std::vector<SweepCellExecution> executions;
  executions.reserve(received_);
  for (const std::optional<SweepCellExecution>& cell : cells_) {
    if (cell.has_value()) {
      executions.push_back(*cell);
    }
  }
  return FinalizeSweepCells(std::move(executions), header_.axis_names,
                            header_.estimand, header_.confidence);
}

std::vector<SweepCellExecution> ShardMerger::TakeExecutions() {
  if (!have_header_) {
    throw std::invalid_argument("ShardMerger: no shard results were added");
  }
  if (!complete()) {
    throw std::invalid_argument(
        "ShardMerger: incomplete merge; cannot take executions, missing cells " +
        ListIndices(MissingCells()));
  }
  std::vector<SweepCellExecution> executions;
  executions.reserve(cells_.size());
  for (std::optional<SweepCellExecution>& cell : cells_) {
    executions.push_back(std::move(*cell));
    cell.reset();
  }
  received_ = 0;
  return executions;
}

}  // namespace longstore
