#include "src/frontier/frontier.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "src/drives/offline_media.h"
#include "src/obs/metrics.h"
#include "src/scenario/media.h"
#include "src/scenario/scenario_ctmc.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/json.h"
#include "src/util/table.h"

namespace longstore {

namespace {

// Groups equal consecutive models: {"A","A","B"} -> "A x2 + B x1".
std::string DescribeFleet(const std::vector<DriveSpec>& drives) {
  std::string out;
  size_t i = 0;
  while (i < drives.size()) {
    size_t j = i;
    while (j < drives.size() && drives[j].model == drives[i].model) {
      ++j;
    }
    if (!out.empty()) {
      out += " + ";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), " x%zu", j - i);
    out += drives[i].model + buf;
    i = j;
  }
  return out;
}

// Appends `value` as C-locale "%.<precision>g" does, whatever LC_NUMERIC
// says: the text lands in FrontierResult::ToJson's canonical bytes.
void AppendGeneral(std::string& out, double value, int precision) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, precision);
  out.append(buf, res.ptr);
}

std::vector<ReplicaProfile> ProfilesFor(DeploymentStyle style, int replicas) {
  switch (style) {
    case DeploymentStyle::kSingleSite:
      return SingleSiteProfiles(replicas);
    case DeploymentStyle::kGeoReplicatedSameAdmin:
      return GeoReplicatedSameAdminProfiles(replicas);
    case DeploymentStyle::kFullyDiverse:
      return FullyDiverseProfiles(replicas);
  }
  throw std::invalid_argument("ProfilesFor: unknown deployment style");
}

// DeriveParams without α: the media's intrinsic rates and audit-driven MDL.
FaultParams MediaParams(const DriveSpec& drive, double audits_per_year) {
  if (IsOfflineMedia(drive.media)) {
    return OfflineReplicaParams(drive, audits_per_year,
                                OfflineHandlingModel::Defaults());
  }
  const ScrubPolicy scrub = audits_per_year > 0.0
                                ? ScrubPolicy::PeriodicPerYear(audits_per_year)
                                : ScrubPolicy::None();
  return OnlineReplicaParams(drive, scrub);
}

// α of `replicas` replicas under `deployment` and the space's correlation
// factors. No drive property enters, so one value serves a whole phase.
double DeploymentAlpha(DeploymentStyle deployment, int replicas,
                       const FrontierSpace& space) {
  // α must stay in (0, 1]; fully shared deployments can multiply below the
  // paper's plausibility floor — clamp there.
  return std::max(MinPairwiseAlpha(ProfilesFor(deployment, replicas), space.correlation),
                  1e-9);
}

}  // namespace

std::string FrontierCandidate::Describe() const {
  std::string out;
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) {
      out += " -> ";
    }
    if (phases.size() > 1) {
      AppendGeneral(out, phases[i].years, 4);
      out += " y: ";
    }
    out += DescribeFleet(phases[i].drives);
  }
  if (!phases.empty()) {
    out += ", ";
    AppendGeneral(out, phases.back().audits_per_year, 3);
    out += " audits/y, ";
    out += std::string(DeploymentStyleName(deployment));
  }
  return out;
}

std::string_view DeploymentStyleName(DeploymentStyle style) {
  switch (style) {
    case DeploymentStyle::kSingleSite:
      return "single site";
    case DeploymentStyle::kGeoReplicatedSameAdmin:
      return "geo-replicated, central ops";
    case DeploymentStyle::kFullyDiverse:
      return "fully diverse";
  }
  return "?";
}

FaultParams DeriveParams(const DriveSpec& drive, int replicas,
                         double audits_per_year, DeploymentStyle deployment,
                         const FrontierSpace& space) {
  FaultParams params = MediaParams(drive, audits_per_year);
  params.alpha = DeploymentAlpha(deployment, replicas, space);
  return params;
}

Scenario PhaseScenario(const FrontierPhase& phase, DeploymentStyle deployment,
                       const FrontierSpace& space) {
  if (phase.drives.empty()) {
    throw std::invalid_argument("frontier: a phase must have >= 1 replica");
  }
  const int replicas = static_cast<int>(phase.drives.size());
  ScenarioBuilder builder;
  for (const DriveSpec& drive : phase.drives) {
    // SpecFromParams reads no α; the phase's one α is the correlation.
    builder.AddReplica(
        SpecFromParams(MediaParams(drive, phase.audits_per_year), drive.model));
  }
  return builder.Correlation(DeploymentAlpha(deployment, replicas, space)).Build();
}

FrontierEvaluator::FrontierEvaluator(FrontierOptions options,
                                     FrontierEvalBackend* backend)
    : options_(std::move(options)), backend_(backend) {
  if (backend_ == nullptr) {
    throw std::invalid_argument("FrontierEvaluator: backend must not be null");
  }
}

FrontierEvaluator::ScenarioEval FrontierEvaluator::EvaluateScenario(
    const Scenario& scenario, uint64_t scenario_hash, std::string scenario_json,
    Duration mission) {
  assert(scenario_json == scenario.ToJson() &&
         scenario_hash == json::Fnv1a64(scenario_json));
  std::string key;
  json::AppendUint64Hex(key, scenario_hash);
  key += '/';
  json::AppendDouble(key, mission.hours());
  if (auto it = memo_.find(key); it != memo_.end()) {
    ++stats_.memo_hits;
    if (obs::Enabled()) {
      static obs::Counter& memo_saved =
          obs::Registry::Global().counter("frontier.evals_memo_saved");
      memo_saved.Add();
    }
    ScenarioEval eval = it->second;
    eval.source = "memo";
    return eval;
  }

  ScenarioEval eval;
  if (!options_.force_simulation && !CtmcIncompatibility(scenario)) {
    // Exact pre-screen: nullopt (loss unreachable) means probability 0.
    eval.probability = ScenarioCtmcLossProbability(scenario, mission).value_or(0.0);
    eval.ci_lo = eval.probability;
    eval.ci_hi = eval.probability;
    eval.exact = true;
    eval.source = "ctmc";
    ++stats_.ctmc_evals;
    if (obs::Enabled()) {
      static obs::Counter& screened =
          obs::Registry::Global().counter("frontier.ctmc_screened");
      screened.Add();
    }
  } else {
    // A single-cell weighted-loss sweep under the identity measure (plain
    // Monte Carlo), packaged exactly like a sharded or service request:
    // content-derived seeds and canonical checksummed bytes, with
    // McConfig's default confidence. Every backend therefore produces the
    // same result bytes for this document. The plan and the document take
    // the hash and JSON the caller already holds.
    std::vector<SweepSpec::Cell> cells(1);
    json::AppendUint64Hex(cells[0].label, scenario_hash);
    cells[0].scenario = scenario;
    SweepOptions sweep_options;
    sweep_options.estimand = SweepOptions::Estimand::kWeightedLossProbability;
    sweep_options.mission = mission;
    sweep_options.seed_mode = SweepOptions::SeedMode::kScenarioDerived;
    sweep_options.mc.trials = options_.trials;
    sweep_options.mc.seed = options_.seed;
    const ShardPlan plan({}, sweep_options, std::move(cells), 1,
                         {&scenario_hash, 1});
    const FrontierEvalBackend::Eval answer =
        backend_->Evaluate(plan.shards()[0].ToJson({&scenario_json, 1}));

    const json::Value result =
        json::Parse(answer.result_json, "frontier result");
    if (result.kind != json::Value::Kind::kArray || result.array.size() != 1) {
      json::Fail("frontier result", "expected exactly one result cell");
    }
    json::ObjectReader cell(result.array[0], "cell", "frontier result");
    // The estimate doubles come out of the canonical result bytes; parsing
    // and re-emitting them is round-trip exact, so frontier JSON assembled
    // from any backend's answer is byte-identical.
    eval.probability = cell.GetNumber("probability");
    eval.ci_lo = cell.GetNumber("ci_lo");
    eval.ci_hi = cell.GetNumber("ci_hi");
    eval.trials = cell.GetInt64("trials");
    eval.exact = false;
    eval.source = answer.source;
    ++stats_.simulated_evals;
    stats_.simulated_trials += answer.new_trials;
    const bool served_from_cache =
        answer.source == "cache" || answer.source == "resumed";
    if (served_from_cache) {
      ++stats_.cache_served;
    }
    if (obs::Enabled()) {
      static obs::Counter& simulated =
          obs::Registry::Global().counter("frontier.evals_simulated");
      static obs::Counter& cache_served =
          obs::Registry::Global().counter("frontier.evals_cache_served");
      static obs::Histogram& trials =
          obs::Registry::Global().histogram("frontier.eval_trials");
      simulated.Add();
      if (served_from_cache) {
        cache_served.Add();
      }
      trials.Record(eval.trials);
    }
  }
  memo_.emplace(std::move(key), eval);
  return eval;
}

namespace {

ReplicaCostBreakdown PhaseFleetCost(const FrontierPhase& phase,
                                    double archive_gb,
                                    const CostAssumptions& costs) {
  ReplicaCostBreakdown total;
  for (const DriveSpec& drive : phase.drives) {
    const ReplicaCostBreakdown one =
        AnnualReplicaCost(drive, archive_gb, phase.audits_per_year, costs);
    total.capex_per_year += one.capex_per_year;
    total.power_per_year += one.power_per_year;
    total.admin_per_year += one.admin_per_year;
    total.space_per_year += one.space_per_year;
    total.audit_per_year += one.audit_per_year;
  }
  return total;
}

// Content identity: deployment + per-phase (duration, cadence, scenario
// hash). Independent of enumeration order, media list order (fleets are
// sorted by model first), and labels.
uint64_t CandidateId(const FrontierCandidate& candidate,
                     const std::vector<uint64_t>& phase_hashes) {
  std::string key(DeploymentStyleName(candidate.deployment));
  for (size_t i = 0; i < candidate.phases.size(); ++i) {
    key += '|';
    json::AppendDouble(key, candidate.phases[i].years);
    key += ':';
    json::AppendDouble(key, candidate.phases[i].audits_per_year);
    key += ':';
    json::AppendUint64Hex(key, phase_hashes[i]);
  }
  return json::Fnv1a64(key);
}

struct BuiltCandidate {
  FrontierCandidate candidate;
  uint64_t id = 0;
  // Per phase: the scenario, its canonical JSON and its CanonicalHash,
  // serialized and hashed once for the id, the memo key and the sweep
  // document. The evaluator takes each JSON and releases it.
  std::vector<Scenario> phase_scenarios;
  std::vector<std::string> phase_json;
  std::vector<uint64_t> phase_hashes;
  double annual_cost_usd = 0.0;
  std::vector<ReplicaCostBreakdown> phase_costs;
};

// Every fleet (multiset of media, sorted by model) of `replicas` drives:
// homogeneous fleets always, every mixed multiset when `mixed_media`.
template <typename Fn>
void ForEachFleet(const FrontierSpace& space, int replicas, Fn&& fn) {
  if (!space.mixed_media) {
    for (const DriveSpec& drive : space.media) {
      fn(std::vector<DriveSpec>(static_cast<size_t>(replicas), drive));
    }
    return;
  }
  std::vector<size_t> pick(static_cast<size_t>(replicas), 0);
  for (;;) {
    std::vector<DriveSpec> fleet;
    fleet.reserve(pick.size());
    for (size_t index : pick) {
      fleet.push_back(space.media[index]);
    }
    std::sort(fleet.begin(), fleet.end(),
              [](const DriveSpec& a, const DriveSpec& b) { return a.model < b.model; });
    fn(std::move(fleet));
    // Next non-decreasing index multiset.
    size_t i = pick.size();
    while (i > 0 && pick[i - 1] + 1 == space.media.size()) {
      --i;
    }
    if (i == 0) {
      break;
    }
    const size_t next = pick[i - 1] + 1;
    for (size_t j = i - 1; j < pick.size(); ++j) {
      pick[j] = next;
    }
  }
}

template <typename Fn>
void ForEachCandidate(const FrontierTarget& target, const FrontierSpace& space,
                      Fn&& fn) {
  const double mission_years = target.mission.years();
  for (DeploymentStyle deployment : space.deployment_choices) {
    for (int replicas : space.replica_choices) {
      for (double audits : space.audit_choices) {
        // Steady-state designs: one phase for the whole mission.
        ForEachFleet(space, replicas, [&](std::vector<DriveSpec> fleet) {
          FrontierCandidate candidate;
          candidate.deployment = deployment;
          FrontierPhase phase;
          phase.years = mission_years;
          phase.drives = std::move(fleet);
          phase.audits_per_year = audits;
          candidate.phases.push_back(std::move(phase));
          fn(std::move(candidate));
        });
        // Two-phase migration schedules: homogeneous A for T years, then
        // migrate to homogeneous B (A != B) for the remainder.
        for (double migrate_at : space.migration_years) {
          if (!(migrate_at > 0.0) || !(migrate_at < mission_years)) {
            continue;
          }
          for (const DriveSpec& first : space.media) {
            for (const DriveSpec& second : space.media) {
              if (first.model == second.model) {
                continue;
              }
              FrontierCandidate candidate;
              candidate.deployment = deployment;
              FrontierPhase a;
              a.years = migrate_at;
              a.drives.assign(static_cast<size_t>(replicas), first);
              a.audits_per_year = audits;
              FrontierPhase b;
              b.years = mission_years - migrate_at;
              b.drives.assign(static_cast<size_t>(replicas), second);
              b.audits_per_year = audits;
              candidate.phases.push_back(std::move(a));
              candidate.phases.push_back(std::move(b));
              fn(std::move(candidate));
            }
          }
        }
      }
    }
  }
}

std::string JoinSources(const std::vector<std::string>& sources) {
  std::string out;
  for (const std::string& source : sources) {
    if (out.find(source) != std::string::npos) {
      continue;
    }
    if (!out.empty()) {
      out += '+';
    }
    out += source;
  }
  return out;
}

}  // namespace

FrontierResult RunFrontierSearch(const FrontierTarget& target,
                                 const FrontierSpace& space,
                                 FrontierEvaluator& evaluator) {
  if (!(target.mission.hours() > 0.0)) {
    throw std::invalid_argument("RunFrontierSearch: mission must be positive");
  }
  if (space.media.empty()) {
    throw std::invalid_argument("RunFrontierSearch: no media to search over");
  }
  obs::TraceJournal* journal =
      obs::Enabled() ? evaluator.options().journal : nullptr;
  const double mission_years = target.mission.years();

  int64_t generated = 0;
  int64_t duplicates = 0;
  int64_t over_budget = 0;
  std::map<uint64_t, BuiltCandidate> unique;
  ForEachCandidate(target, space, [&](FrontierCandidate candidate) {
    ++generated;
    BuiltCandidate built;
    built.phase_scenarios.reserve(candidate.phases.size());
    for (const FrontierPhase& phase : candidate.phases) {
      built.phase_scenarios.push_back(
          PhaseScenario(phase, candidate.deployment, space));
      // CanonicalHash is FNV-1a over exactly these bytes, which wait for the
      // candidate's evaluation.
      built.phase_json.push_back(built.phase_scenarios.back().ToJson());
      built.phase_hashes.push_back(json::Fnv1a64(built.phase_json.back()));
      built.phase_costs.push_back(
          PhaseFleetCost(phase, space.archive_gb, space.costs));
      built.annual_cost_usd += (phase.years / mission_years) *
                               built.phase_costs.back().total_per_year();
    }
    built.id = CandidateId(candidate, built.phase_hashes);
    built.candidate = std::move(candidate);
    if (unique.count(built.id) != 0) {
      ++duplicates;
      if (journal != nullptr) {
        journal->Emit(obs::TraceEvent("frontier_candidate")
                          .Hex("id", built.id)
                          .Str("status", "duplicate"));
      }
      return;
    }
    if (built.annual_cost_usd > target.max_annual_cost_usd) {
      ++over_budget;
      if (journal != nullptr) {
        journal->Emit(obs::TraceEvent("frontier_candidate")
                          .Hex("id", built.id)
                          .Str("status", "over_budget")
                          .Dbl("annual_cost_usd", built.annual_cost_usd));
      }
      return;
    }
    unique.emplace(built.id, std::move(built));
  });
  if (obs::Enabled()) {
    static obs::Counter& generated_counter =
        obs::Registry::Global().counter("frontier.candidates_generated");
    static obs::Counter& duplicate_counter =
        obs::Registry::Global().counter("frontier.candidates_duplicate");
    static obs::Counter& budget_counter =
        obs::Registry::Global().counter("frontier.candidates_over_budget");
    generated_counter.Add(generated);
    duplicate_counter.Add(duplicates);
    budget_counter.Add(over_budget);
  }

  FrontierResult result;
  result.target = target;
  // std::map iteration = ascending id: the evaluation visit order is fixed
  // by candidate *content*, never by enumeration order.
  for (auto& [id, built] : unique) {
    FrontierPoint point;
    point.id = id;
    point.annual_cost_usd = built.annual_cost_usd;
    point.phase_costs = std::move(built.phase_costs);

    double log_survival = 0.0;
    double log_survival_lo = 0.0;
    double log_survival_hi = 0.0;
    size_t exact_phases = 0;
    std::vector<std::string> sources;
    for (size_t i = 0; i < built.candidate.phases.size(); ++i) {
      const FrontierEvaluator::ScenarioEval eval = evaluator.EvaluateScenario(
          built.phase_scenarios[i], built.phase_hashes[i],
          std::move(built.phase_json[i]),
          Duration::Years(built.candidate.phases[i].years));
      log_survival += std::log1p(-eval.probability);
      log_survival_lo += std::log1p(-eval.ci_lo);
      log_survival_hi += std::log1p(-eval.ci_hi);
      if (eval.exact) {
        ++exact_phases;
      }
      point.trials += eval.trials;
      sources.push_back(eval.source);
    }
    // + 0.0 normalizes -expm1(0.0)'s negative zero to +0.0 so canonical
    // bytes never print "-0".
    point.loss_probability = -std::expm1(log_survival) + 0.0;
    point.ci_lo = -std::expm1(log_survival_lo) + 0.0;
    point.ci_hi = -std::expm1(log_survival_hi) + 0.0;
    point.method = exact_phases == built.candidate.phases.size() ? "ctmc"
                   : exact_phases == 0                           ? "simulated"
                                                                 : "mixed";
    point.meets_target =
        point.loss_probability <= target.target_loss_probability;
    point.candidate = std::move(built.candidate);
    if (journal != nullptr) {
      journal->Emit(obs::TraceEvent("frontier_candidate")
                        .Hex("id", point.id)
                        .Str("status", point.method)
                        .Str("source", JoinSources(sources))
                        .Dbl("annual_cost_usd", point.annual_cost_usd)
                        .Dbl("loss_probability", point.loss_probability)
                        .Int("trials", point.trials));
    }
    result.points.push_back(std::move(point));
  }

  std::sort(result.points.begin(), result.points.end(),
            [](const FrontierPoint& a, const FrontierPoint& b) {
              if (a.annual_cost_usd != b.annual_cost_usd) {
                return a.annual_cost_usd < b.annual_cost_usd;
              }
              if (a.loss_probability != b.loss_probability) {
                return a.loss_probability < b.loss_probability;
              }
              return a.id < b.id;
            });
  double best_loss = 2.0;
  int64_t kept = 0;
  for (FrontierPoint& point : result.points) {
    if (point.loss_probability < best_loss) {
      best_loss = point.loss_probability;
      point.on_frontier = true;
      ++kept;
    }
    if (journal != nullptr) {
      journal->Emit(obs::TraceEvent("frontier_point")
                        .Hex("id", point.id)
                        .Int("kept", point.on_frontier ? 1 : 0)
                        .Dbl("annual_cost_usd", point.annual_cost_usd)
                        .Dbl("loss_probability", point.loss_probability));
    }
  }
  if (journal != nullptr) {
    journal->Emit(obs::TraceEvent("frontier_search")
                      .Int("generated", generated)
                      .Int("duplicates", duplicates)
                      .Int("over_budget", over_budget)
                      .Int("points", static_cast<int64_t>(result.points.size()))
                      .Int("kept", kept));
  }
  if (obs::Enabled()) {
    static obs::Counter& searches =
        obs::Registry::Global().counter("frontier.searches");
    static obs::Histogram& points_histogram =
        obs::Registry::Global().histogram("frontier.search_points");
    searches.Add();
    points_histogram.Record(static_cast<int64_t>(result.points.size()));
  }
  return result;
}

std::string FrontierResult::ToJson() const {
  std::string out = "{\"frontier_version\":1,\"target\":{\"mission_years\":";
  json::AppendDouble(out, target.mission.years());
  out += ",\"target_loss_probability\":";
  json::AppendDouble(out, target.target_loss_probability);
  out += ",\"max_annual_cost_usd\":";
  json::AppendDouble(out, target.max_annual_cost_usd);
  out += "},\"points\":[";
  for (size_t i = 0; i < points.size(); ++i) {
    const FrontierPoint& point = points[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"id\":";
    json::AppendUint64Hex(out, point.id);
    out += ",\"description\":";
    json::AppendEscaped(out, point.candidate.Describe());
    out += ",\"deployment\":";
    json::AppendEscaped(out,
                        std::string(DeploymentStyleName(point.candidate.deployment)));
    out += ",\"schedule\":[";
    for (size_t p = 0; p < point.candidate.phases.size(); ++p) {
      const FrontierPhase& phase = point.candidate.phases[p];
      if (p > 0) {
        out += ',';
      }
      out += "{\"years\":";
      json::AppendDouble(out, phase.years);
      out += ",\"audits_per_year\":";
      json::AppendDouble(out, phase.audits_per_year);
      out += ",\"media\":[";
      for (size_t d = 0; d < phase.drives.size(); ++d) {
        if (d > 0) {
          out += ',';
        }
        json::AppendEscaped(out, phase.drives[d].model);
      }
      out += "]}";
    }
    out += "],\"annual_cost_usd\":";
    json::AppendDouble(out, point.annual_cost_usd);
    out += ",\"cost_breakdown\":[";
    for (size_t p = 0; p < point.phase_costs.size(); ++p) {
      const ReplicaCostBreakdown& cost = point.phase_costs[p];
      if (p > 0) {
        out += ',';
      }
      out += "{\"capex\":";
      json::AppendDouble(out, cost.capex_per_year);
      out += ",\"power\":";
      json::AppendDouble(out, cost.power_per_year);
      out += ",\"admin\":";
      json::AppendDouble(out, cost.admin_per_year);
      out += ",\"space\":";
      json::AppendDouble(out, cost.space_per_year);
      out += ",\"audit\":";
      json::AppendDouble(out, cost.audit_per_year);
      out += ",\"total\":";
      json::AppendDouble(out, cost.total_per_year());
      out += '}';
    }
    out += "],\"method\":";
    json::AppendEscaped(out, point.method);
    out += ",\"loss_probability\":";
    json::AppendDouble(out, point.loss_probability);
    out += ",\"ci_lo\":";
    json::AppendDouble(out, point.ci_lo);
    out += ",\"ci_hi\":";
    json::AppendDouble(out, point.ci_hi);
    out += ",\"trials\":";
    json::AppendInt64(out, point.trials);
    out += ",\"meets_target\":";
    out += point.meets_target ? "true" : "false";
    out += ",\"on_frontier\":";
    out += point.on_frontier ? "true" : "false";
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

// The time-weighted per-component breakdown (what --explain prints).
ReplicaCostBreakdown WeightedBreakdown(const FrontierPoint& point) {
  ReplicaCostBreakdown weighted;
  double total_years = 0.0;
  for (const FrontierPhase& phase : point.candidate.phases) {
    total_years += phase.years;
  }
  for (size_t i = 0; i < point.phase_costs.size(); ++i) {
    const double w = point.candidate.phases[i].years / total_years;
    weighted.capex_per_year += w * point.phase_costs[i].capex_per_year;
    weighted.power_per_year += w * point.phase_costs[i].power_per_year;
    weighted.admin_per_year += w * point.phase_costs[i].admin_per_year;
    weighted.space_per_year += w * point.phase_costs[i].space_per_year;
    weighted.audit_per_year += w * point.phase_costs[i].audit_per_year;
  }
  return weighted;
}

Table FrontierTable(const FrontierResult& result, bool explain) {
  std::vector<std::string> headers = {"cost $/y", "loss probability",
                                      "ci_lo",    "ci_hi",
                                      "method",   "trials",
                                      "target",   "frontier"};
  if (explain) {
    for (const char* component : {"capex", "power", "admin", "space", "audit"}) {
      headers.push_back(component);
    }
  }
  headers.push_back("design");
  Table table(std::move(headers));
  for (const FrontierPoint& point : result.points) {
    std::vector<std::string> row = {
        Table::Fmt(point.annual_cost_usd, 2),
        Table::FmtSci(point.loss_probability),
        Table::FmtSci(point.ci_lo),
        Table::FmtSci(point.ci_hi),
        point.method,
        std::to_string(point.trials),
        point.meets_target ? "yes" : "no",
        point.on_frontier ? "yes" : "no",
    };
    if (explain) {
      const ReplicaCostBreakdown weighted = WeightedBreakdown(point);
      row.push_back(Table::Fmt(weighted.capex_per_year, 2));
      row.push_back(Table::Fmt(weighted.power_per_year, 2));
      row.push_back(Table::Fmt(weighted.admin_per_year, 2));
      row.push_back(Table::Fmt(weighted.space_per_year, 2));
      row.push_back(Table::Fmt(weighted.audit_per_year, 2));
    }
    row.push_back(point.candidate.Describe());
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace

std::string FrontierResult::ToCsv(bool explain) const {
  return FrontierTable(*this, explain).ToCsv();
}

std::string FrontierResult::ToTable(bool explain) const {
  return FrontierTable(*this, explain).Render();
}

FrontierTarget GoldenSmallTarget() {
  FrontierTarget target;
  target.mission = Duration::Years(50.0);
  target.target_loss_probability = 1e-6;
  return target;
}

FrontierSpace GoldenSmallSpace() {
  FrontierSpace space;
  space.media = {SeagateBarracuda200Gb(), SeagateCheetah146Gb(),
                 Lto3TapeCartridge()};
  space.replica_choices = {2, 3, 4};
  space.audit_choices = {1.0, 12.0};
  space.deployment_choices = {DeploymentStyle::kFullyDiverse};
  space.mixed_media = true;
  return space;
}

FrontierOptions GoldenSmallOptions() {
  FrontierOptions options;
  options.trials = 600;
  options.seed = 33;
  return options;
}

}  // namespace longstore
