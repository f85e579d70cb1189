// Archive planner: the §4.3 budget question made executable.
//
// "Most of the information people would like to see live forever is not in
// the hands of organizations with unlimited budgets." Given an archive size,
// a mission length, and a reliability target, the planner enumerates drive
// class x replication x audit frequency x deployment style, realizes each
// design as a frontier candidate (src/frontier), scores it with the exact
// CTMC MTTDL and eq. 1, prices it, and reports the cheapest qualifying
// design plus the cost/reliability Pareto frontier.
//
// It scores with eq. 1 on the exact MTTDL rather than RunFrontierSearch's
// transient-CTMC loss probability: below P ~ 1e-7 the transient solve
// carries up to ~2e-9 of absolute error, which eq. 1 on the exact MTTDL
// does not (ROADMAP direction 4).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/frontier/frontier.h"
#include "src/model/paper_model.h"
#include "src/scenario/scenario_ctmc.h"
#include "src/util/table.h"

namespace {

struct ScoredDesign {
  longstore::FrontierCandidate candidate;  // one phase spanning the mission
  longstore::Duration mttdl;  // exact CTMC MTTDL (physical convention)
  double loss_probability = 0.0;
  double annual_cost_usd = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace longstore;

  const double archive_gb = argc > 1 ? std::atof(argv[1]) : 2000.0;
  const Duration mission = Duration::Years(argc > 2 ? std::atof(argv[2]) : 50.0);
  const double target = argc > 3 ? std::atof(argv[3]) : 0.01;

  // The drive catalog, Schwarz et al.'s latent factor, and the default cost
  // and correlation assumptions; audit cadences from never to weekly.
  FrontierSpace space;
  space.archive_gb = archive_gb;
  space.audit_choices = {0.0, 1.0, 3.0, 12.0, 52.0};
  space.deployment_choices = {DeploymentStyle::kSingleSite,
                              DeploymentStyle::kGeoReplicatedSameAdmin,
                              DeploymentStyle::kFullyDiverse};

  std::printf("Planning a %.0f GB archive for %.0f years, target P(loss) <= %s\n\n",
              archive_gb, mission.years(), Table::FmtPercent(target).c_str());

  std::vector<ScoredDesign> designs;
  for (const DriveSpec& drive : space.media) {
    for (int replicas : space.replica_choices) {
      for (double audits : space.audit_choices) {
        for (DeploymentStyle deployment : space.deployment_choices) {
          ScoredDesign design;
          design.candidate.deployment = deployment;
          design.candidate.phases.push_back(FrontierPhase{
              mission.years(),
              std::vector<DriveSpec>(static_cast<size_t>(replicas), drive), audits});
          design.mttdl =
              ScenarioCtmcMttdl(
                  PhaseScenario(design.candidate.phases[0], deployment, space))
                  .value_or(Duration::Infinite());
          design.loss_probability = LossProbability(design.mttdl, mission);
          design.annual_cost_usd =
              AnnualSystemCost(drive, archive_gb, replicas, audits, space.costs);
          designs.push_back(std::move(design));
        }
      }
    }
  }
  std::printf("evaluated %zu strategy combinations\n\n", designs.size());

  const ScoredDesign* best = nullptr;
  for (const ScoredDesign& design : designs) {
    if (design.loss_probability <= target &&
        (best == nullptr || design.annual_cost_usd < best->annual_cost_usd)) {
      best = &design;
    }
  }
  if (best != nullptr) {
    const FrontierPhase& phase = best->candidate.phases[0];
    const FaultParams params =
        DeriveParams(phase.drives[0], static_cast<int>(phase.drives.size()),
                     phase.audits_per_year, best->candidate.deployment, space);
    std::printf("cheapest design meeting the target:\n  %s\n"
                "  annual cost $%.0f, MTTDL %s, P(loss over mission) %s\n"
                "  derived per-replica params: MV=%s ML=%s MRV=%s MDL=%s alpha=%.3g\n\n",
                best->candidate.Describe().c_str(), best->annual_cost_usd,
                best->mttdl.ToString().c_str(),
                Table::FmtSci(best->loss_probability, 2).c_str(),
                params.mv.ToString().c_str(), params.ml.ToString().c_str(),
                params.mrv.ToString().c_str(), params.mdl.ToString().c_str(),
                params.alpha);
  } else {
    std::printf("no design in the search space meets the target — relax the target\n"
                "or extend the choice lists in this example's FrontierSpace.\n\n");
  }

  // Pareto frontier: ascending cost, strictly improving reliability.
  std::sort(designs.begin(), designs.end(),
            [](const ScoredDesign& a, const ScoredDesign& b) {
              if (a.annual_cost_usd != b.annual_cost_usd) {
                return a.annual_cost_usd < b.annual_cost_usd;
              }
              return a.loss_probability < b.loss_probability;
            });
  std::printf("cost/reliability Pareto frontier:\n");
  Table frontier({"annual cost", "P(loss over mission)", "MTTDL", "design"});
  double best_loss = 2.0;
  for (const ScoredDesign& design : designs) {
    if (!(design.loss_probability < best_loss)) {
      continue;
    }
    best_loss = design.loss_probability;
    frontier.AddRow({"$" + Table::Fmt(design.annual_cost_usd, 4),
                     Table::FmtSci(design.loss_probability, 2),
                     design.mttdl.is_infinite() ? "inf"
                                                : Table::FmtYears(design.mttdl.years(), 0),
                     design.candidate.Describe()});
  }
  std::printf("%s", frontier.Render().c_str());

  std::printf("\nReading the frontier: audits and independence dominate the early\n"
              "wins (they are nearly free); replicas buy the later decades; the\n"
              "enterprise drive rarely appears — §6.1's conclusion, discovered\n"
              "here by exhaustive search rather than argument.\n");
  return 0;
}
