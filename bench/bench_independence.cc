// E10 (§4.2, §6.5): increase independence.
//
// Part 1 recreates the Talagala-style disk-farm observation the paper cites:
// 368 drives sharing power circuits, logged over six months, with a large
// fraction of machine restarts traced to shared power events (the study
// attributes 22% of restarts to a single outage). We simulate the farm with
// shared-risk power groups and measure the common-mode share of faults.
//
// Part 2 compares the three canonical deployments (single site / geo-
// replicated with central ops / fully diverse) on the same hardware, using
// both the α-model (CTMC) and generative common-mode simulation.
//
// Both parts run on the batch sweep engine: the farm is a one-cell
// kLossProbability sweep whose aggregate metrics replace the old hand-rolled
// 40-seed loop, and the three deployments execute as one explicit-cell sweep
// (kSharedRoot, so every deployment sees the same trial streams).

#include <cstdio>

#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"
#include "src/threats/independence.h"
#include "src/util/table.h"

namespace longstore {
namespace {

constexpr int64_t kFarmWindows = 40;

void TalagalaFarm() {
  std::printf("Part 1: Talagala-style disk farm (368 drives, 8 shared power "
              "circuits, 6 months)\n");
  // Per-machine restart interarrival (the study logged *machine restarts*,
  // which include OS and dependency failures, not just drive deaths): about
  // 0.8 intrinsic restarts per machine per 6 months. Media bit rot is rare
  // at this scale.
  ScenarioBuilder farm_builder;
  farm_builder.Replicas(368,
                        ReplicaSpec()
                            .FaultTimes(Duration::Hours(5400.0), Duration::Hours(3.0e6))
                            .RepairTimes(Duration::Hours(12.0), Duration::Hours(12.0))
                            .ScrubEvery(Duration::Days(30.0)));
  // Eight power circuits of 46 machines each; an outage restarts about half
  // of its circuit.
  for (int circuit = 0; circuit < 8; ++circuit) {
    CommonModeSource source;
    source.name = "power-circuit-" + std::to_string(circuit);
    source.event_rate = Rate::PerYear(1.0);
    for (int d = circuit * 46; d < (circuit + 1) * 46; ++d) {
      source.members.push_back(d);
    }
    source.hit_probability = 0.5;
    source.visible_fraction = 1.0;
    farm_builder.CommonMode(std::move(source));
  }

  // One cell, 40 trials of one six-month window each; the estimand's loss
  // count is irrelevant (a 368-replica farm never collapses in 6 months) —
  // the aggregate metrics are the measurement.
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Days(182.0);
  options.mc.trials = kFarmWindows;
  options.mc.seed = 4242;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult result =
      SweepRunner().Run(SweepSpec(farm_builder.Build()), options);
  const SimMetrics& total = result.cells.front().loss->aggregate_metrics;

  const double windows = static_cast<double>(kFarmWindows);
  const double share = static_cast<double>(total.common_mode_faults) /
                       static_cast<double>(total.visible_faults);
  Table farm({"metric", "value"});
  farm.AddRow({"visible faults (restarts) per 6-month window",
               Table::Fmt(static_cast<double>(total.visible_faults) / windows, 3)});
  farm.AddRow({"power events per window",
               Table::Fmt(static_cast<double>(total.common_mode_events) / windows, 3)});
  farm.AddRow({"share of restarts from shared power", Table::FmtPercent(share)});
  std::printf("%s", farm.Render().c_str());
  std::printf("\nPaper's citation: in the logged farm a single power outage accounted "
              "for 22%% of\nall machine restarts. The simulated farm reproduces that "
              "magnitude: roughly a\nfifth to a quarter of restarts trace to shared "
              "power rather than independent\nmachine mortality — correlation is a "
              "first-order effect, not a tail correction.\n\n");
}

void Deployments() {
  std::printf("Part 2: the same 3-replica archive under three deployments\n");
  const CorrelationFactors factors = CorrelationFactors::Defaults();
  const SharedRiskRates risk = SharedRiskRates::Defaults();
  const FaultParams hardware = ApplyScrubPolicy(
      FaultParams::PaperCheetahExample(), ScrubPolicy::PeriodicPerYear(12.0));

  struct Deployment {
    const char* name;
    std::vector<ReplicaProfile> profiles;
  };
  const Deployment deployments[] = {
      {"single site, one admin, one batch", SingleSiteProfiles(3)},
      {"geo-replicated, central ops", GeoReplicatedSameAdminProfiles(3)},
      {"fully diverse (British Library style)", FullyDiverseProfiles(3)},
  };

  // Generative check: independent per-replica faults plus shared-risk
  // common-mode events derived from the same profiles — all three
  // deployments batched as one sweep.
  SweepSpec spec;
  for (const Deployment& deployment : deployments) {
    ScenarioBuilder sim;
    sim.Replicas(3,
                 SpecFromParams(hardware).ScrubWith(ScrubPolicy::PeriodicPerYear(12.0)));
    for (CommonModeSource& source : BuildCommonModeSources(deployment.profiles, risk)) {
      sim.CommonMode(std::move(source));
    }
    spec.AddCell(deployment.name, sim.Build());
  }
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Years(50.0);
  options.mc.trials = 3000;
  options.mc.seed = 77;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult mc_result = SweepRunner().Run(spec, options);

  Table table({"deployment", "alpha (min pairwise)", "MTTDL (CTMC)",
               "P(loss 50 y, alpha model)", "P(loss 50 y, common-mode MC)"});
  for (const Deployment& deployment : deployments) {
    const double alpha =
        std::max(MinPairwiseAlpha(deployment.profiles, factors), 1e-9);
    const FaultParams p = WithCorrelation(hardware, alpha);
    const ReplicatedChainBuilder chain(p, 3, RateConvention::kPhysical);
    const auto mttdl = chain.Mttdl();
    const auto loss = chain.LossProbability(Duration::Years(50.0));
    const LossProbabilityEstimate& estimate =
        *mc_result.ByLabel(deployment.name).loss;

    table.AddRow({deployment.name, Table::FmtSci(alpha, 2),
                  Table::FmtYears(mttdl->years(), 0), Table::FmtSci(*loss, 2),
                  Table::Fmt(estimate.probability(), 3) + " [" +
                      Table::Fmt(estimate.wilson_ci.lo, 3) + ", " +
                      Table::Fmt(estimate.wilson_ci.hi, 3) + "]"});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nBoth models agree on the ordering: identical hardware spans orders of\n"
      "magnitude of reliability depending on what the replicas share. Geographic\n"
      "separation alone leaves the administrative and software common modes —\n"
      "\"increasing the replication is not enough if we do not also ensure the\n"
      "independence of the replicas geographically, administratively, and\n"
      "otherwise\" (§4.2).\n");
}

}  // namespace
}  // namespace longstore

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E10 (§6.5)", "independence of replicas").c_str());
  TalagalaFarm();
  Deployments();
  return 0;
}
