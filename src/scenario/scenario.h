// Composable system-description API: one Scenario type describes the whole
// archive — a ReplicaSpec per replica (media, fault distribution, repair,
// scrub cadence, initial age) plus the shared structure (redundancy
// threshold, hazard-multiplier correlation, common-mode sources) — and
// every subsystem consumes it:
//
//   * the discrete-event engine (src/storage) resolves the specs to flat
//     per-replica arrays at construction and never touches them in the event
//     loop (the zero-allocation hot path is preserved);
//   * the sweep engine (src/sweep) builds grids of Scenarios whose axes may
//     mutate any replica's field, not just global knobs;
//   * the exact CTMC bridge (src/scenario/scenario_ctmc.h) scores the
//     scenarios it can model and rejects the rest with a precise reason;
//   * the rare-event tuner (src/rare) accepts Scenarios directly, and the
//     frontier search (src/frontier) realizes every candidate as one.
//
// The paper's §4–§6 argument is that real archives are *not* fleets of
// identical, independent units: they mix media (disk + tape), ages (batch
// vs rolling procurement), scrub cadences and administrative domains.
// Scenario makes those heterogeneous fleets first-class, and it is the only
// system description: a homogeneous fleet is simply N copies of one
// ReplicaSpec (ScenarioBuilder::Replicas; SpecFromParams in media.h turns a
// FaultParams into one).
//
// Scenarios are serializable (ToJson / FromJson round-trips exactly) and
// carry a canonical identity hash (CanonicalHash), so sweep shards and
// rare-event pilot runs can ship scenarios across processes and re-derive
// the same deterministic trial streams. See src/scenario/README.md.

#ifndef LONGSTORE_SRC_SCENARIO_SCENARIO_H_
#define LONGSTORE_SRC_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/model/strategies.h"  // ScrubPolicy
#include "src/util/units.h"

namespace longstore {

namespace json {
struct Value;  // parsed JSON tree (src/util/json.h)
}

// How a replica's fault clocks are distributed.
enum class FaultDistribution {
  kExponential,
  kWeibull,  // age-based; models the bathtub curve (§6.5 hardware aging).
};

// How a replica's repair durations are distributed.
enum class RepairDistribution {
  kExponential,   // matches the CTMC solvers exactly
  kDeterministic, // fixed rebuild time (physical drive re-copy)
};

// A shared component whose failure strikes several replicas at once: a power
// circuit, a cooling loop, a SCSI controller, an administrative domain, a
// geographic site (§4.2, §6.5; Talagala's disk-farm observations). Events
// arrive as a Poisson process; each event independently hits each member.
struct CommonModeSource {
  std::string name;
  Rate event_rate;
  std::vector<int> members;      // replica indices
  double hit_probability = 1.0;  // chance each member is affected per event
  double visible_fraction = 1.0; // affected member suffers visible (else latent) fault
};

// Everything that can differ between two replicas of the same archive: the
// medium, the fault process (distribution, means, shape, initial age), the
// repair process, and the audit cadence. Fluent setters return *this so
// specs compose inline inside ScenarioBuilder calls, e.g.
//   ReplicaSpec().FaultTimes(mv, ml).ScrubEvery(Duration::Hours(720)).
struct ReplicaSpec {
  // Display/serialization label for the medium ("ST3200822A", "LTO-3", ...).
  // Carried through JSON and sweep tables; part of the canonical identity.
  std::string media = "replica";

  FaultDistribution fault_distribution = FaultDistribution::kExponential;
  Duration mv = Duration::Infinite();  // mean time to a visible fault
  Duration ml = Duration::Infinite();  // mean time to a latent fault
  // Weibull shape for both fault kinds; < 1 infant mortality, > 1 wear-out.
  // Scales are derived so the means match mv / ml. Meaningful only under
  // FaultDistribution::kWeibull (canonically 1.0 otherwise).
  double weibull_shape = 1.0;
  // Hardware age at mission start (hours). Models same-batch fleets sitting
  // at the same point of the bathtub curve (§6.5). Only a Weibull fault
  // clock can see age; a non-zero value on an exponential replica is a
  // validation error (the memoryless clock would silently ignore it).
  double initial_age_hours = 0.0;

  RepairDistribution repair_distribution = RepairDistribution::kExponential;
  Duration mrv = Duration::Zero();  // mean time to repair a visible fault
  Duration mrl = Duration::Zero();  // mean time to repair a detected latent fault

  // This replica's audit policy. Each replica runs its own detection
  // process; a mixed fleet can scrub the disks weekly and audit the tape
  // quarterly. A periodic scrub's phase follows the scenario's
  // scrub_staggered flag.
  ScrubPolicy scrub = ScrubPolicy::None();

  // --- fluent setters -----------------------------------------------------
  ReplicaSpec& Media(std::string name);
  ReplicaSpec& FaultTimes(Duration visible_mean, Duration latent_mean);
  ReplicaSpec& Weibull(double shape);
  ReplicaSpec& InitialAge(Duration age);
  ReplicaSpec& RepairTimes(Duration visible_repair, Duration latent_repair);
  ReplicaSpec& DeterministicRepair();
  ReplicaSpec& ScrubWith(ScrubPolicy policy);
  ReplicaSpec& ScrubEvery(Duration interval);  // shorthand: periodic policy

  // Error message if the spec is inconsistent on its own (scenario-level
  // constraints such as correlation are checked by Scenario::Validate).
  std::optional<std::string> Validate() const;
};

// A complete, self-describing system description: per-replica specs plus
// shared structure. Plain aggregate — build directly, via ScenarioBuilder,
// or via Scenario::FromJson.
struct Scenario {
  std::vector<ReplicaSpec> replicas;

  // Minimum number of intact replicas/fragments required to reconstruct the
  // data. 1 models whole-data replication (the paper's setting); m > 1
  // models an (n, m) erasure code — n fragments of which any m suffice
  // (OceanStore-style cryptographic sharing, §7). Data loss occurs the
  // moment fewer than `required_intact` fragments remain intact.
  int required_intact = 1;

  // Hazard-multiplier correlation factor in (0, 1] (§5.3): once any replica
  // is faulty, every surviving fault clock's mean shrinks to alpha times its
  // independent value. Shared by the whole fleet — it models the *coupling*,
  // not a per-replica property.
  double alpha = 1.0;

  // Periodic scrub phases: staggered spreads replica audit times evenly
  // across each replica's period (what operators do); aligned audits all
  // replicas at once (worst case for simultaneous latent faults).
  bool scrub_staggered = true;

  std::vector<CommonModeSource> common_mode;

  int replica_count() const { return static_cast<int>(replicas.size()); }

  // Centralized validation: per-replica consistency plus every cross-field
  // constraint (correlation vs Weibull, common-mode membership, ...).
  // Returns an error message, or nullopt.
  std::optional<std::string> Validate() const;

  // --- serialization & identity (scenario_json.cc) ------------------------

  // Canonical compact JSON: fixed key order, every field emitted,
  // round-trip-exact doubles ("inf"/"-inf"/"nan" as strings). Two scenarios
  // are field-wise identical iff their canonical JSON strings are equal.
  // Four retired keys stay at their one value so that no hash moves:
  // "convention" ("physical"; the simulator runs no other rate convention),
  // "record_scrub_passes", "visible_fault_surfaces_latent" and each
  // replica's "scrub_phase_hours" (scenario_json.cc).
  std::string ToJson() const;

  // Strict parser for the ToJson schema (unknown keys, missing keys, type
  // mismatches and a retired mode's key at any other value are errors).
  // Accepts any key order and ignores insignificant whitespace; throws
  // std::invalid_argument with a position on malformed input.
  // FromJson(ToJson(s)) == s exactly (bit-identical doubles), so the round
  // trip preserves CanonicalHash and trial streams.
  static Scenario FromJson(std::string_view json);

  // Maps an already-parsed JSON value with the same strictness as FromJson.
  // For protocols that embed scenarios inside larger canonical documents
  // (the shard spec, src/shard/) and parse the enclosing tree themselves.
  static Scenario FromJsonValue(const json::Value& value);

  // Stable 64-bit FNV-1a over the canonical JSON. The scenario's identity:
  // deterministic across processes and platforms, so sweep shards can
  // derive per-cell seeds from content rather than position (see
  // SweepOptions::SeedMode::kScenarioDerived).
  uint64_t CanonicalHash() const;
};

// Fluent assembly with centralized validation:
//
//   Scenario s = ScenarioBuilder()
//       .Replicas(2, DiskSpec(SeagateBarracuda200Gb(),
//                             ScrubPolicy::PeriodicPerYear(52.0)))
//       .AddReplica(TapeSpec(Lto3TapeCartridge(), /*audits_per_year=*/4.0)
//                       .ScrubEvery(Duration::Hours(720.0)))
//       .Correlation(0.5)
//       .CommonModeAll("machine room", Rate::PerYear(0.05))
//       .Build();
//
// Build() runs Scenario::Validate and throws std::invalid_argument on any
// inconsistency, so a built Scenario is always runnable.
class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;

  // Appends `count` copies of `spec`.
  ScenarioBuilder& Replicas(int count, ReplicaSpec spec);
  // Appends one replica.
  ScenarioBuilder& AddReplica(ReplicaSpec spec);

  ScenarioBuilder& RequiredIntact(int required_intact);
  ScenarioBuilder& Correlation(double alpha);
  // Scrubs are staggered by default (Scenario::scrub_staggered); this
  // aligns every replica's scrub phase instead.
  ScenarioBuilder& AlignedScrubs();

  // Adds a common-mode source; members index replicas added so far or later
  // (validated at Build).
  ScenarioBuilder& CommonMode(CommonModeSource source);
  // Shorthand: a source striking every replica of the finished scenario.
  ScenarioBuilder& CommonModeAll(std::string name, Rate event_rate,
                                 double hit_probability = 1.0,
                                 double visible_fraction = 1.0);

  // Validates and returns the scenario; throws std::invalid_argument with
  // the Scenario::Validate message on any inconsistency.
  Scenario Build() const;

  // The scenario assembled so far, unvalidated (for specs that intend to
  // mutate further, e.g. sweep bases).
  const Scenario& Peek() const { return scenario_; }

 private:
  Scenario scenario_;
  std::vector<size_t> all_replica_sources_;  // CommonModeAll fixups at Build
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_SCENARIO_SCENARIO_H_
