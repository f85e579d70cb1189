// The cost/reliability design frontier (§6 of the paper, end to end).
//
// Given a durability target (mission loss probability) and an annual budget,
// the frontier search enumerates storage designs — replica count, media mix
// from the drive catalog (disk, tape, and the gigayear etched medium of
// arXiv:1310.2961), audit cadence, deployment independence, and two-phase
// procurement/migration schedules — prices each with src/drives/cost_model,
// scores each with the exact CTMC where compatible and the sweep engine
// otherwise, and returns the Pareto frontier.
//
// Determinism contract (tested in tests/frontier_test.cc):
//   FrontierResult::ToJson() is byte-identical across worker pool sizes,
//   candidate enumeration order, and evaluation backends (in-process pool,
//   in-process service, resident sweep_serviced over its socket).
// The contract holds because (a) candidates are identified by content hash
// and visited in hash order, (b) no sweep document carries a pool size,
// (c) every backend runs the identical
// execute/finalize path and the frontier copies the estimate doubles out of
// those canonical result bytes, and (d) provenance ("cache" vs "computed")
// is reported through metrics and the trace journal, never through the
// frontier JSON. See src/frontier/README.md.

#ifndef LONGSTORE_SRC_FRONTIER_FRONTIER_H_
#define LONGSTORE_SRC_FRONTIER_FRONTIER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/drives/cost_model.h"
#include "src/drives/drive_specs.h"
#include "src/frontier/eval_backend.h"
#include "src/model/fault_params.h"
#include "src/obs/trace.h"
#include "src/scenario/scenario.h"
#include "src/threats/independence.h"
#include "src/util/units.h"

namespace longstore {

// How independent the replicas are (§4.2, §5.5): sets α through the
// per-pair correlation factors of src/threats/independence.h.
enum class DeploymentStyle {
  kSingleSite,              // one machine room, one admin, one batch
  kGeoReplicatedSameAdmin,  // distinct sites, central operations
  kFullyDiverse,            // distinct sites, admins, batches, software, orgs
};

std::string_view DeploymentStyleName(DeploymentStyle style);

// What the archive must achieve, and what it may spend.
struct FrontierTarget {
  Duration mission = Duration::Years(50.0);
  // Acceptable probability of losing the archive over the mission.
  double target_loss_probability = 1e-6;
  // Candidates whose (time-weighted) annual cost exceeds this are discarded
  // before evaluation. Infinite = unconstrained.
  double max_annual_cost_usd = std::numeric_limits<double>::infinity();
};

// The design space the search enumerates (cross product, plus mixed-media
// multisets and two-phase migration schedules when enabled).
struct FrontierSpace {
  std::vector<DriveSpec> media = DriveCatalog();
  std::vector<int> replica_choices = {2, 3, 4};
  std::vector<double> audit_choices = {1.0, 12.0};
  std::vector<DeploymentStyle> deployment_choices = {
      DeploymentStyle::kFullyDiverse};
  // Also enumerate heterogeneous fleets: every multiset of `media` of each
  // replica count (e.g. two disks + one tape). Heterogeneous fleets are
  // outside the exact CTMC's state space, so they are simulated.
  bool mixed_media = false;
  // For each T (years, 0 < T < mission), add two-phase schedules: run on
  // medium A for T years, migrate everything to medium B for the remainder.
  // Homogeneous phases only, A != B.
  std::vector<double> migration_years = {};

  double archive_gb = 1000.0;
  CostAssumptions costs = CostAssumptions::Defaults();
  CorrelationFactors correlation = CorrelationFactors::Defaults();
};

// One procurement phase of a candidate: `drives.size()` replicas (one entry
// per replica; equal entries = homogeneous fleet) operated for `years` with
// the given audit cadence. Canonical form keeps `drives` sorted by model so
// the same multiset always hashes identically.
struct FrontierPhase {
  double years = 0.0;
  std::vector<DriveSpec> drives;
  double audits_per_year = 0.0;
};

// A candidate design: one or more phases (sum of years = mission) under one
// deployment style. Single-phase candidates are steady-state designs;
// multi-phase candidates encode migration schedules.
struct FrontierCandidate {
  std::vector<FrontierPhase> phases;
  DeploymentStyle deployment = DeploymentStyle::kFullyDiverse;

  // "Barracuda 7200.7 x3, 12 audits/y, fully diverse" or, with phases,
  // "10 y: LTO-3 x3 -> 40 y: SiN-W gigayear disc x3, 1 audits/y, ...".
  std::string Describe() const;
};

// Per-replica fault parameters of `drive` in a fleet of `replicas` audited
// `audits_per_year` times a year: media-specific intrinsic rates, an
// audit-driven MDL (off-line media pay handling-induced faults; no audits
// means latent faults are never detected), and α from the deployment style
// under the space's correlation factors, clamped to >= 1e-9. ML is MV /
// kLatentToVisibleRatio (src/drives/offline_media.h).
FaultParams DeriveParams(const DriveSpec& drive, int replicas,
                         double audits_per_year, DeploymentStyle deployment,
                         const FrontierSpace& space);

// Realizes one phase as a runnable Scenario: one replica per drive with its
// DeriveParams parameters, detection as an exponential scrub at the derived
// MDL (so homogeneous phases stay inside the exact CTMC's state space), and
// the deployment's α as the correlation. Throws std::invalid_argument for a
// phase with no drives.
Scenario PhaseScenario(const FrontierPhase& phase, DeploymentStyle deployment,
                       const FrontierSpace& space);

// Simulation knobs for candidates the exact CTMC cannot score.
struct FrontierOptions {
  int64_t trials = 2000;
  uint64_t seed = 33;
  // Score every candidate through the sweep engine, even CTMC-compatible
  // ones. Used by the CTMC-agreement test and the memoization bench.
  bool force_simulation = false;
  // Optional lifecycle journal: frontier_candidate / frontier_point /
  // frontier_search events (see tools/trace_dump --help).
  obs::TraceJournal* journal = nullptr;
};

// Scores scenarios for the frontier search, cheapest path first: an exact
// CTMC answer when the scenario is compatible, otherwise a single-cell
// plain Monte Carlo sweep (the weighted loss-probability estimand under the
// identity measure; src/frontier/README.md says why) through the configured
// backend. Results are memoized by (scenario content hash, mission), so a
// search that revisits a scenario — and any later search through the same
// evaluator — pays nothing.
class FrontierEvaluator {
 public:
  struct ScenarioEval {
    double probability = 0.0;
    double ci_lo = 0.0;
    double ci_hi = 0.0;
    bool exact = false;   // scored by the exact CTMC
    int64_t trials = 0;   // trials recorded in the result (0 when exact)
    // Provenance: "ctmc", "computed", "cache", "resumed", or "memo".
    // Deterministic inputs produce deterministic estimates regardless of
    // source; provenance is surfaced only via metrics and traces.
    std::string source;
  };

  struct Stats {
    int64_t ctmc_evals = 0;
    int64_t simulated_evals = 0;
    int64_t simulated_trials = 0;  // new trials paid to the backend
    int64_t memo_hits = 0;
    int64_t cache_served = 0;  // backend answered "cache" / "resumed"
  };

  // `backend` must outlive the evaluator.
  FrontierEvaluator(FrontierOptions options, FrontierEvalBackend* backend);

  // Loss probability of `scenario` over `mission`, with its CI.
  // `scenario_hash` and `scenario_json` are the scenario's CanonicalHash and
  // ToJson, which the caller already holds: the memo key and a simulated
  // cell's label use the hash, and its sweep document splices the JSON and
  // takes its sweep id from the hash. Builds without NDEBUG assert both
  // against the scenario.
  ScenarioEval EvaluateScenario(const Scenario& scenario, uint64_t scenario_hash,
                                std::string scenario_json, Duration mission);

  const Stats& stats() const { return stats_; }
  const FrontierOptions& options() const { return options_; }

 private:
  FrontierOptions options_;
  FrontierEvalBackend* backend_;
  std::map<std::string, ScenarioEval> memo_;
  Stats stats_;
};

// A scored candidate. Mission loss probability composes across phases as
// 1 - prod(1 - p_i) (independent survival per phase); annual cost is the
// time-weighted average of the phases' fleet costs.
struct FrontierPoint {
  FrontierCandidate candidate;
  uint64_t id = 0;  // content hash: dedup identity and canonical sort key
  double annual_cost_usd = 0.0;
  // Per phase: the fleet's cost components (summed over replicas).
  std::vector<ReplicaCostBreakdown> phase_costs;
  double loss_probability = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  // "ctmc" (every phase exact), "simulated" (none), or "mixed".
  std::string method;
  int64_t trials = 0;
  bool meets_target = false;
  bool on_frontier = false;
};

struct FrontierResult {
  FrontierTarget target;
  // Sorted by (annual cost asc, loss probability asc, id asc); `on_frontier`
  // marks the strictly-improving-reliability walk over that order.
  std::vector<FrontierPoint> points;

  // Canonical bytes — the determinism contract's unit of comparison.
  std::string ToJson() const;
  // "cost,loss" rows; `explain` appends the per-point cost breakdown.
  std::string ToCsv(bool explain = false) const;
  std::string ToTable(bool explain = false) const;
};

// Enumerates the space, dedups candidates by content hash, discards
// over-budget candidates, scores the rest through `evaluator` in hash order,
// and marks the Pareto frontier. Reusing one evaluator across calls makes
// repeated searches hit its memo (and, with a service backend, the
// daemon's result cache).
FrontierResult RunFrontierSearch(const FrontierTarget& target,
                                 const FrontierSpace& space,
                                 FrontierEvaluator& evaluator);

// The pinned small search shared by tests/frontier_golden_test.cc, the CI
// frontier-smoke job, and `frontier_plan --golden-small`: 3 media x
// replicas {2,3,4} x audits {1,12}, fully diverse, mixed media on (so the
// search exercises both the CTMC screen and the simulated path).
FrontierTarget GoldenSmallTarget();
FrontierSpace GoldenSmallSpace();
FrontierOptions GoldenSmallOptions();

}  // namespace longstore

#endif  // LONGSTORE_SRC_FRONTIER_FRONTIER_H_
