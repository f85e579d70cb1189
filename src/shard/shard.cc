#include "src/shard/shard.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/sweep/accumulator.h"
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

// Verifies the envelope and its version and returns the body to parse.
std::string_view OpenShardDocument(std::string_view text, const std::string& context,
                                   const std::string& source) {
  const json::ChecksummedDocument doc =
      json::OpenChecksummedDocument(text, "shard_version", context, source);
  if (doc.version != kShardProtocolVersion) {
    const std::string what =
        "unsupported shard_version " + std::to_string(doc.version) +
        " in a checksummed envelope (this build speaks " +
        std::to_string(kShardProtocolVersion) + ")";
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

// Why `range` cannot be one of a spec cell's ranges under mc.trials =
// `trials`, or nullopt. Shared by ShardSpec::FromJson and RunShard.
std::optional<std::string> RangeError(size_t index, const ShardCellRange& range,
                                      int64_t trials) {
  const std::string where = "cell " + std::to_string(index) + " trial range [" +
                            std::to_string(range.begin) + ", " +
                            std::to_string(range.end) + ")";
  if (range.begin < 0 || range.end <= range.begin) {
    return where + " is empty or negative";
  }
  if (range.end > trials) {
    return where + " extends past mc.trials = " + std::to_string(trials);
  }
  return std::nullopt;
}

// Why `piece` is malformed on its own (empty range, or an accumulator count
// that breaks the prefix rule), or nullopt. Shared by ShardResult::FromJson
// and ShardMerger::Add.
std::optional<std::string> PieceError(const ShardPiece& piece) {
  const std::string where = "cell " + std::to_string(piece.index) + " piece [" +
                            std::to_string(piece.trial_begin) + ", " +
                            std::to_string(piece.trial_end) + ")";
  if (piece.trial_begin < 0 || piece.trial_end <= piece.trial_begin) {
    return where + " is empty or negative";
  }
  // One accumulator for a prefix piece (its blocks pre-folded), else one
  // per index-aligned block.
  const int64_t expected = piece.trial_begin == 0
                               ? 1
                               : (piece.trial_end - 1) / kTrialBlockSize -
                                     piece.trial_begin / kTrialBlockSize + 1;
  if (static_cast<int64_t>(piece.blocks.size()) != expected) {
    return where + " carries " + std::to_string(piece.blocks.size()) +
           " accumulators; " +
           (piece.trial_begin == 0
                ? std::string("a piece starting at trial 0 carries exactly 1 "
                              "(its blocks pre-folded)")
                : "the aligned block partition of its range has " +
                      std::to_string(expected));
  }
  return std::nullopt;
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
  AppendOptionsJson(id, options);
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
  if (ranges.size() != cells.size()) {
    throw std::invalid_argument(
        "ShardSpec::ToJson: ranges must match cells one to one");
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
    body += ",\"range\":{\"begin\":";
    json::AppendInt64(body, ranges[i].begin);
    body += ",\"end\":";
    json::AppendInt64(body, ranges[i].end);
    // The scenario's canonical JSON, spliced verbatim: the scenario
    // subtree's bytes — and therefore CanonicalHash and kScenarioDerived
    // seeds — are exactly the driver's.
    body += "},\"scenario\":";
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
  const std::string seed_mode = reader.GetString("seed_mode");
  const auto mode = SeedModeFromName(seed_mode);
  if (!mode) {
    json::Fail(kSpecContext, "unknown seed_mode \"" + seed_mode + "\"");
  }
  shard.options.seed_mode = *mode;
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
  for (const json::Value& entry : reader.GetArray("cells")) {
    json::ObjectReader cell(entry, "cell", kSpecContext);
    SweepSpec::Cell out;
    out.index = seen.Claim(cell.GetInt64("index"));
    out.label = cell.GetString("label");
    out.coordinates = ReadCoordinates(cell, shard.axis_names, out.index, kSpecContext);
    ShardCellRange range;
    {
      json::ObjectReader r(cell.GetObject("range"), "range", kSpecContext);
      range.begin = r.GetInt64("begin");
      range.end = r.GetInt64("end");
      r.Finish();
    }
    if (auto error = RangeError(out.index, range, shard.options.mc.trials)) {
      json::Fail(kSpecContext, *error);
    }
    out.scenario = Scenario::FromJsonValue(cell.GetObject("scenario"));
    cell.Finish();
    shard.cells.push_back(std::move(out));
    shard.ranges.push_back(range);
  }
  reader.Finish();
  return shard;
}

// --- partition and plan ----------------------------------------------------

std::vector<ShardSpec> PartitionShardRound(const ShardSpec& round, int shard_count) {
  if (shard_count < 1) {
    throw std::invalid_argument("PartitionShardRound: shard_count must be >= 1");
  }
  const std::vector<SweepSpec::Cell>& cells = round.cells;
  const std::vector<ShardCellRange>& ranges = round.ranges;
  if (ranges.size() != cells.size()) {
    throw std::invalid_argument(
        "PartitionShardRound: ranges must match cells one to one");
  }
  const size_t k = static_cast<size_t>(shard_count);
  std::vector<ShardSpec> shards(k);
  for (size_t s = 0; s < k; ++s) {
    ShardSpec& shard = shards[s];
    shard.shard_index = static_cast<int>(s);
    shard.shard_count = shard_count;
    shard.total_cells = round.total_cells;
    shard.sweep_id = round.sweep_id;
    shard.axis_names = round.axis_names;
    shard.options = round.options;
  }
  const auto assign = [&](size_t s, size_t i, int64_t begin, int64_t end) {
    shards[s].cells.push_back(cells[i]);
    shards[s].ranges.push_back(ShardCellRange{begin, end});
  };
  if (cells.size() >= k ||
      round.options.estimand != SweepOptions::Estimand::kMttdl) {
    for (size_t i = 0; i < cells.size(); ++i) {
      assign(i % k, i, ranges[i].begin, ranges[i].end);
    }
    return shards;
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const int64_t begin = ranges[i].begin;
    const int64_t end = ranges[i].end;
    const int64_t b0 = begin / kTrialBlockSize;
    const int64_t blocks = (end - 1) / kTrialBlockSize - b0 + 1;
    const int64_t chunks = std::min<int64_t>(shard_count, blocks);
    for (int64_t j = 0; j < chunks; ++j) {
      const int64_t lo = std::max(begin, (b0 + j * blocks / chunks) * kTrialBlockSize);
      const int64_t hi =
          std::min(end, (b0 + (j + 1) * blocks / chunks) * kTrialBlockSize);
      assign((i + static_cast<size_t>(j)) % k, i, lo, hi);
    }
  }
  return shards;
}

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

  ShardSpec whole;
  whole.total_cells = cells.size();
  whole.sweep_id = ComputeSweepId(axis_names, options, cells);
  whole.axis_names = std::move(axis_names);
  whole.options = options;
  whole.ranges.assign(cells.size(), ShardCellRange{0, options.mc.trials});
  whole.cells = std::move(cells);
  shards_ = PartitionShardRound(whole, shard_count);
}

// --- RunShard --------------------------------------------------------------

ShardResult RunShard(const ShardSpec& shard, WorkerPool* pool) {
  ValidateSweepOptions(shard.options);
  ValidateSweepCells(shard.cells);
  if (shard.options.adaptive) {
    throw std::invalid_argument(
        "RunShard: adaptive sweeps run round by round under a coordinator "
        "(FleetSupervisor::Run); a shard runs fixed trial ranges");
  }
  if (shard.ranges.size() != shard.cells.size()) {
    throw std::invalid_argument("RunShard: ranges must match cells one to one");
  }
  std::vector<CellTrialRange> work;
  work.reserve(shard.cells.size());
  for (size_t i = 0; i < shard.cells.size(); ++i) {
    if (auto error = RangeError(shard.cells[i].index, shard.ranges[i],
                                shard.options.mc.trials)) {
      throw std::invalid_argument("RunShard: " + *error);
    }
    work.push_back(
        CellTrialRange{&shard.cells[i], shard.ranges[i].begin, shard.ranges[i].end});
  }

  std::vector<int64_t> busy_ns;
  std::vector<std::vector<TrialAccumulator>> blocks =
      RunCellTrialRanges(pool != nullptr ? *pool : WorkerPool::Shared(), work,
                         shard.options, &busy_ns);

  ShardResult result;
  result.shard_index = shard.shard_index;
  result.shard_count = shard.shard_count;
  result.total_cells = shard.total_cells;
  result.sweep_id = shard.sweep_id;
  result.estimand = shard.options.estimand;
  result.confidence = shard.options.mc.confidence;
  result.axis_names = shard.axis_names;
  for (size_t i = 0; i < work.size(); ++i) {
    ShardPiece piece;
    piece.index = shard.cells[i].index;
    piece.label = shard.cells[i].label;
    piece.coordinates = shard.cells[i].coordinates;
    piece.trial_begin = work[i].begin;
    piece.trial_end = work[i].end;
    if (piece.trial_begin == 0) {
      // The prefix rule: pre-fold in trial order, as the merger would.
      piece.blocks.emplace_back();
      for (const TrialAccumulator& block : blocks[i]) {
        piece.blocks.front().MergeFrom(block);
      }
    } else {
      piece.blocks = std::move(blocks[i]);
    }
    result.cells.push_back(std::move(piece));
    RecordSweepCellTelemetry(work[i].end - work[i].begin, 1, busy_ns[i]);
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
    const ShardPiece& piece = cells[i];
    if (i > 0) {
      body += ',';
    }
    body += "{\"index\":";
    json::AppendInt64(body, static_cast<int64_t>(piece.index));
    body += ",\"label\":";
    json::AppendEscaped(body, piece.label);
    body += ",\"coordinates\":";
    AppendCoordinatesJson(body, piece.coordinates);
    body += ",\"trial_begin\":";
    json::AppendInt64(body, piece.trial_begin);
    body += ",\"trial_end\":";
    json::AppendInt64(body, piece.trial_end);
    body += ",\"blocks\":[";
    for (size_t b = 0; b < piece.blocks.size(); ++b) {
      if (b > 0) {
        body += ',';
      }
      AppendTrialAccumulatorJson(body, piece.blocks[b]);
    }
    body += "]}";
  }
  body += "]}";
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
    ShardPiece piece;
    piece.index = seen.Claim(cell.GetInt64("index"));
    piece.label = cell.GetString("label");
    piece.coordinates =
        ReadCoordinates(cell, result.axis_names, piece.index, kResultContext);
    piece.trial_begin = cell.GetInt64("trial_begin");
    piece.trial_end = cell.GetInt64("trial_end");
    for (const json::Value& block : cell.GetArray("blocks")) {
      piece.blocks.push_back(TrialAccumulatorFromJsonValue(block, kResultContext));
    }
    cell.Finish();
    if (auto error = PieceError(piece)) {
      json::Fail(kResultContext, *error);
    }
    result.cells.push_back(std::move(piece));
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

std::string DescribeTrials(int64_t begin, int64_t end) {
  return "trials [" + std::to_string(begin) + ", " + std::to_string(end) + ")";
}

[[noreturn]] void MergeFail(const std::string& what) {
  throw std::invalid_argument("ShardMerger: " + what);
}

}  // namespace

ShardMerger::ShardMerger(const std::vector<ShardSpec>& shards,
                         std::vector<SweepCellExecution> prior) {
  if (shards.empty()) {
    MergeFail("no shards to merge");
  }
  const ShardSpec& first = shards.front();
  header_.total_cells = first.total_cells;
  header_.sweep_id = first.sweep_id;
  header_.estimand = first.options.estimand;
  header_.confidence = first.options.mc.confidence;
  header_.axis_names = first.axis_names;
  cells_.resize(first.total_cells);
  for (const ShardSpec& shard : shards) {
    if (shard.ranges.size() != shard.cells.size()) {
      MergeFail("shard ranges must match cells one to one");
    }
    for (size_t i = 0; i < shard.cells.size(); ++i) {
      const SweepSpec::Cell& cell = shard.cells[i];
      const ShardCellRange& range = shard.ranges[i];
      if (cell.index >= cells_.size() || range.end <= range.begin) {
        MergeFail("planned cell " + std::to_string(cell.index) + " " +
                  DescribeTrials(range.begin, range.end) +
                  " is outside the sweep or empty");
      }
      std::optional<CellMerge>& slot = cells_[cell.index];
      if (!slot.has_value()) {
        slot.emplace();
        slot->execution.index = cell.index;
        slot->execution.label = cell.label;
        slot->execution.coordinates = cell.coordinates;
        slot->from = range.begin;
        slot->to = range.end;
        ++expected_;
      } else {
        slot->from = std::min(slot->from, range.begin);
        slot->to = std::max(slot->to, range.end);
      }
    }
  }
  for (SweepCellExecution& state : prior) {
    if (state.index >= cells_.size() || !cells_[state.index].has_value()) {
      MergeFail("prior cell " + std::to_string(state.index) +
                " has no trials planned in this round");
    }
    cells_[state.index]->execution = std::move(state);
  }
  // A cell without prior state starts empty at trial 0.
  for (const std::optional<CellMerge>& cell : cells_) {
    if (cell.has_value() && cell->execution.trials != cell->from) {
      MergeFail("cell " + std::to_string(cell->execution.index) + " has run " +
                std::to_string(cell->execution.trials) +
                " trials but its round starts at trial " +
                std::to_string(cell->from));
    }
  }
}

void ShardMerger::Add(ShardResult result, const std::string& source) {
  const std::string who = DescribeShard(result.shard_index, source);
  if (result.shard_count < 1 || result.shard_index < 0 ||
      result.shard_index >= result.shard_count) {
    MergeFail(who + ": shard_index " + std::to_string(result.shard_index) +
              " is outside [0, shard_count)");
  }
  if (result.estimand != header_.estimand) {
    MergeFail(who + " was run with a different estimand than the planned sweep");
  }
  if (result.confidence != header_.confidence) {
    MergeFail(who + " was run at a different confidence than the planned sweep");
  }
  if (result.total_cells != header_.total_cells) {
    MergeFail(who + " claims " + std::to_string(result.total_cells) +
              " total cells, the planned sweep has " +
              std::to_string(header_.total_cells));
  }
  // Documents prove membership by sweep identity; shard_count is provenance
  // only.
  if (result.sweep_id != header_.sweep_id) {
    MergeFail(who + " belongs to a different sweep than the planned one "
                    "(sweep_id mismatch)");
  }
  if (result.axis_names != header_.axis_names) {
    MergeFail(who + " has a different axis list than the planned sweep");
  }
  for (ShardPiece& piece : result.cells) {
    AddPiece(std::move(piece), who);
  }
}

void ShardMerger::AddPiece(ShardPiece piece, const std::string& who) {
  if (piece.index >= cells_.size() || !cells_[piece.index].has_value()) {
    MergeFail(who + ": cell " + std::to_string(piece.index) +
              " has no trials planned in this merge");
  }
  CellMerge& cell = *cells_[piece.index];
  const std::string name =
      "cell " + std::to_string(piece.index) + " (\"" + cell.execution.label + "\")";
  if (piece.label != cell.execution.label) {
    MergeFail(who + ": " + name + " arrived labelled \"" + piece.label + "\"");
  }
  if (auto error = PieceError(piece)) {
    MergeFail(who + ": " + *error);
  }
  const int64_t from = cell.from;
  if (piece.trial_begin < from || piece.trial_end > cell.to) {
    MergeFail(who + ": " + name + " " +
              DescribeTrials(piece.trial_begin, piece.trial_end) +
              " reach outside the planned " + DescribeTrials(from, cell.to));
  }
  // A seam inside the round must land on a block edge: the canonical fold
  // is per 256-trial block, and an unaligned seam would split a block's
  // Welford accumulation differently than a single process does.
  if ((piece.trial_begin != from && piece.trial_begin % kTrialBlockSize != 0) ||
      (piece.trial_end != cell.to && piece.trial_end % kTrialBlockSize != 0)) {
    MergeFail(who + ": " + name + " " +
              DescribeTrials(piece.trial_begin, piece.trial_end) +
              " are not aligned to the " + std::to_string(kTrialBlockSize) +
              "-trial block partition");
  }
  for (const auto& [other, other_who] : cell.pieces) {
    const int64_t lo = std::max(piece.trial_begin, other.trial_begin);
    const int64_t hi = std::min(piece.trial_end, other.trial_end);
    if (lo < hi) {
      MergeFail(name + " " + DescribeTrials(lo, hi) + " arrived twice: first from " +
                other_who + ", again from " + who +
                "; each trial must be run by exactly one shard");
    }
  }
  cell.covered += piece.trial_end - piece.trial_begin;
  cell.pieces.emplace_back(std::move(piece), who);
  if (cell.covered != cell.to - from) {
    return;
  }
  // The pieces are disjoint subranges of [from, to) covering all of it:
  // fold them in ascending trial order onto the prior accumulator — the
  // exact fold sequence of a single process.
  std::sort(cell.pieces.begin(), cell.pieces.end(),
            [](const auto& a, const auto& b) {
              return a.first.trial_begin < b.first.trial_begin;
            });
  for (auto& [part, part_who] : cell.pieces) {
    for (const TrialAccumulator& block : part.blocks) {
      cell.execution.acc.MergeFrom(block);
    }
    part.blocks.clear();
  }
  cell.execution.trials = cell.to;
  cell.execution.rounds++;
  cell.merged = true;
  ++received_;
}

void ShardMerger::AddJson(std::string_view json, const std::string& source) {
  Add(ShardResult::FromJson(json, source), source);
}

std::vector<size_t> ShardMerger::MissingCells() const {
  std::vector<size_t> missing;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].has_value() && !cells_[i]->merged) {
      missing.push_back(i);
    }
  }
  return missing;
}

SweepResult ShardMerger::Finish() const {
  if (!complete()) {
    throw std::invalid_argument("ShardMerger: incomplete merge; missing cells " +
                                ListIndices(MissingCells()));
  }
  // Cells are slotted by grid index, so this is independent of both the
  // partition and the arrival order — the property the merge tests pin.
  std::vector<SweepCellExecution> executions;
  executions.reserve(received_);
  for (const std::optional<CellMerge>& cell : cells_) {
    if (cell.has_value()) {
      executions.push_back(cell->execution);
    }
  }
  return FinalizeSweepCells(std::move(executions), header_.axis_names,
                            header_.estimand, header_.confidence);
}

std::vector<SweepCellExecution> ShardMerger::TakeExecutions() {
  std::vector<SweepCellExecution> executions;
  executions.reserve(received_);
  for (std::optional<CellMerge>& cell : cells_) {
    if (cell.has_value() && cell->merged) {
      executions.push_back(std::move(cell->execution));
    }
    cell.reset();
  }
  expected_ = 0;
  received_ = 0;
  return executions;
}

}  // namespace longstore
