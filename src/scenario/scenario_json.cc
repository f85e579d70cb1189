// Canonical JSON serialization, strict parsing, and identity hashing for
// Scenario. The canonical form is the scenario's *identity*: fixed key
// order, every field emitted, compact separators, round-trip-exact doubles.
// CanonicalHash is FNV-1a over that string, so two scenarios hash equal iff
// they are field-wise identical — the property the sweep engine's
// kScenarioDerived seed mode and sharded fan-out rely on.
//
// The JSON mechanics (emission helpers, strict parser, ObjectReader) live in
// src/util/json.h, shared with the shard protocol (src/shard/), which embeds
// scenarios as nested objects inside its own canonical documents.

#include <string>

#include "src/scenario/scenario.h"
#include "src/util/json.h"

namespace longstore {
namespace {

constexpr char kContext[] = "Scenario::FromJson";

const char* FaultDistributionName(FaultDistribution d) {
  return d == FaultDistribution::kWeibull ? "weibull" : "exponential";
}

const char* RepairDistributionName(RepairDistribution d) {
  return d == RepairDistribution::kDeterministic ? "deterministic" : "exponential";
}

const char* ScrubKindName(ScrubPolicy::Kind kind) {
  switch (kind) {
    case ScrubPolicy::Kind::kNone:
      return "none";
    case ScrubPolicy::Kind::kPeriodic:
      return "periodic";
    case ScrubPolicy::Kind::kExponential:
      return "exponential";
    case ScrubPolicy::Kind::kOnAccess:
      return "on_access";
  }
  return "none";
}

FaultDistribution ParseFaultDistribution(const std::string& name) {
  if (name == "exponential") {
    return FaultDistribution::kExponential;
  }
  if (name == "weibull") {
    return FaultDistribution::kWeibull;
  }
  json::Fail(kContext, "unknown fault_distribution \"" + name + "\"");
}

RepairDistribution ParseRepairDistribution(const std::string& name) {
  if (name == "exponential") {
    return RepairDistribution::kExponential;
  }
  if (name == "deterministic") {
    return RepairDistribution::kDeterministic;
  }
  json::Fail(kContext, "unknown repair_distribution \"" + name + "\"");
}

ScrubPolicy::Kind ParseScrubKind(const std::string& name) {
  if (name == "none") {
    return ScrubPolicy::Kind::kNone;
  }
  if (name == "periodic") {
    return ScrubPolicy::Kind::kPeriodic;
  }
  if (name == "exponential") {
    return ScrubPolicy::Kind::kExponential;
  }
  if (name == "on_access") {
    return ScrubPolicy::Kind::kOnAccess;
  }
  json::Fail(kContext, "unknown scrub_kind \"" + name + "\"");
}

// Keys of four retired modes: the paper's rate convention in the
// simulator, the scrub-tick trace loop, latent surfacing by a visible fault,
// and explicit scrub phases. ToJson writes each at the one value it can
// still hold, because dropping a key would move every CanonicalHash and with
// it every content-derived seed, sweep_id and cache key. FromJson accepts
// nothing else.
void RequireRetired(bool holds, const std::string& key, const char* value) {
  if (!holds) {
    json::Fail(kContext,
               key + " is a retired mode; only " + value + " is accepted");
  }
}

void RequirePhysicalConvention(const std::string& name) {
  if (name == "paper") {
    json::Fail(kContext,
               "convention \"paper\" is retired: the simulator runs the "
               "physical convention only, and the paper's convention "
               "(equations 7-12) is computed by the exact chain "
               "(ReplicatedChainBuilder, MirroredMttdl)");
  }
  if (name != "physical") {
    json::Fail(kContext, "unknown convention \"" + name + "\"");
  }
}

}  // namespace

std::string Scenario::ToJson() const {
  using json::AppendDouble;
  using json::AppendEscaped;
  std::string out;
  // About 190 bytes of header and 355 per replica (golden-small's scenarios
  // are 892, 1,245 and 1,598 bytes at 2, 3 and 4 replicas): one allocation.
  out.reserve(192 + replicas.size() * 384);
  out += "{\"version\":1,\"required_intact\":";
  AppendDouble(out, static_cast<double>(required_intact));
  out += ",\"alpha\":";
  AppendDouble(out, alpha);
  // Retired modes ("convention" here, two keys below and each replica's
  // scrub phase): fixed text that keeps every hash (see RequireRetired).
  out += ",\"convention\":\"physical\",\"scrub_staggered\":";
  out += scrub_staggered ? "true" : "false";
  out += ",\"record_scrub_passes\":false,\"visible_fault_surfaces_latent\":false";
  out += ",\"replicas\":[";
  for (size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaSpec& spec = replicas[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"media\":";
    AppendEscaped(out, spec.media);
    out += ",\"fault_distribution\":\"";
    out += FaultDistributionName(spec.fault_distribution);
    out += "\",\"mv_hours\":";
    AppendDouble(out, spec.mv.hours());
    out += ",\"ml_hours\":";
    AppendDouble(out, spec.ml.hours());
    out += ",\"weibull_shape\":";
    AppendDouble(out, spec.weibull_shape);
    out += ",\"initial_age_hours\":";
    AppendDouble(out, spec.initial_age_hours);
    out += ",\"repair_distribution\":\"";
    out += RepairDistributionName(spec.repair_distribution);
    out += "\",\"mrv_hours\":";
    AppendDouble(out, spec.mrv.hours());
    out += ",\"mrl_hours\":";
    AppendDouble(out, spec.mrl.hours());
    out += ",\"scrub_kind\":\"";
    out += ScrubKindName(spec.scrub.kind);
    out += "\",\"scrub_interval_hours\":";
    AppendDouble(out, spec.scrub.interval.hours());
    out += ",\"scrub_phase_hours\":-1}";  // retired mode, fixed text
  }
  out += "],\"common_mode\":[";
  for (size_t s = 0; s < common_mode.size(); ++s) {
    const CommonModeSource& source = common_mode[s];
    if (s > 0) {
      out += ',';
    }
    out += "{\"name\":";
    AppendEscaped(out, source.name);
    out += ",\"events_per_hour\":";
    AppendDouble(out, source.event_rate.per_hour());
    out += ",\"hit_probability\":";
    AppendDouble(out, source.hit_probability);
    out += ",\"visible_fraction\":";
    AppendDouble(out, source.visible_fraction);
    out += ",\"members\":[";
    for (size_t m = 0; m < source.members.size(); ++m) {
      if (m > 0) {
        out += ',';
      }
      AppendDouble(out, static_cast<double>(source.members[m]));
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

Scenario Scenario::FromJsonValue(const json::Value& root) {
  json::ObjectReader reader(root, "scenario", kContext);
  const int version = reader.GetInt("version");
  if (version != 1) {
    json::Fail(kContext, "unsupported version " + std::to_string(version));
  }

  Scenario scenario;
  scenario.required_intact = reader.GetInt("required_intact");
  scenario.alpha = reader.GetNumber("alpha");
  RequirePhysicalConvention(reader.GetString("convention"));
  scenario.scrub_staggered = reader.GetBool("scrub_staggered");
  RequireRetired(!reader.GetBool("record_scrub_passes"), "record_scrub_passes",
                 "false");
  RequireRetired(!reader.GetBool("visible_fault_surfaces_latent"),
                 "visible_fault_surfaces_latent", "false");

  for (const json::Value& entry : reader.GetArray("replicas")) {
    json::ObjectReader replica(entry, "replica", kContext);
    ReplicaSpec spec;
    spec.media = replica.GetString("media");
    spec.fault_distribution =
        ParseFaultDistribution(replica.GetString("fault_distribution"));
    spec.mv = Duration::Hours(replica.GetNumber("mv_hours"));
    spec.ml = Duration::Hours(replica.GetNumber("ml_hours"));
    spec.weibull_shape = replica.GetNumber("weibull_shape");
    spec.initial_age_hours = replica.GetNumber("initial_age_hours");
    spec.repair_distribution =
        ParseRepairDistribution(replica.GetString("repair_distribution"));
    spec.mrv = Duration::Hours(replica.GetNumber("mrv_hours"));
    spec.mrl = Duration::Hours(replica.GetNumber("mrl_hours"));
    spec.scrub.kind = ParseScrubKind(replica.GetString("scrub_kind"));
    spec.scrub.interval = Duration::Hours(replica.GetNumber("scrub_interval_hours"));
    RequireRetired(replica.GetNumber("scrub_phase_hours") == -1.0,
                   "scrub_phase_hours", "-1");
    replica.Finish();
    scenario.replicas.push_back(std::move(spec));
  }

  for (const json::Value& entry : reader.GetArray("common_mode")) {
    json::ObjectReader object(entry, "common_mode source", kContext);
    CommonModeSource source;
    source.name = object.GetString("name");
    source.event_rate = Rate::PerHour(object.GetNumber("events_per_hour"));
    source.hit_probability = object.GetNumber("hit_probability");
    source.visible_fraction = object.GetNumber("visible_fraction");
    for (const json::Value& member : object.GetArray("members")) {
      if (member.kind != json::Value::Kind::kNumber) {
        json::Fail(kContext, "common_mode members must be integers");
      }
      source.members.push_back(
          json::CheckedInt(member.number, "common_mode member", kContext));
    }
    object.Finish();
    scenario.common_mode.push_back(std::move(source));
  }

  reader.Finish();
  return scenario;
}

Scenario Scenario::FromJson(std::string_view json) {
  return FromJsonValue(json::Parse(json, kContext));
}

uint64_t Scenario::CanonicalHash() const { return json::Fnv1a64(ToJson()); }

}  // namespace longstore
