// E14 (§6.5 hardware diversity): same-batch fleets age together.
//
// "Disks in an array often come from a single manufacturing batch. They thus
// have the same firmware, same hardware and are the same age, and so are at
// the same point in the 'bathtub' lifetime failure curve." This bench gives
// that sentence numbers: Weibull wear-out fleets whose members share an age
// versus fleets refreshed by rolling procurement, measured by simulation.
//
// Fleets are per-replica Scenario cells (each member carries its own initial
// age and Weibull shape) executed as ONE sweep batch — 12 cells on one
// worker pool instead of 12 spawn/join estimator calls. kSharedRoot keeps
// every cell's trial streams identical to the per-call original.

#include <cstdio>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

namespace longstore {
namespace {

Scenario Fleet(double shape, const std::vector<double>& ages) {
  ScenarioBuilder builder;
  for (const double age : ages) {
    builder.AddReplica(ReplicaSpec()
                           .FaultTimes(Duration::Hours(30000.0),  // ~3.4-year life
                                       Duration::Hours(1e12))
                           .RepairTimes(Duration::Hours(100.0), Duration::Zero())
                           .Weibull(shape)
                           .InitialAge(Duration::Hours(age)));
  }
  return builder.Build();
}

std::string CellLabel(const char* fleet, double shape) {
  return std::string(fleet) + " @ shape " + std::to_string(shape);
}

}  // namespace
}  // namespace longstore

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E14 (§6.5)", "single-batch vs rolling-procurement "
                            "fleets on the bathtub curve")
                        .c_str());

  const Duration mission = Duration::Years(2.0);
  std::printf("Mirrored pairs, drive mean life 30000 h, 100 h repair; "
              "P(loss in %.0f y) by simulation (6000 trials/cell):\n\n",
              mission.years());

  struct FleetCase {
    const char* name;
    std::vector<double> ages;
  };
  const FleetCase cases[] = {
      {"all new (fresh batch)", {0.0, 0.0}},
      {"all mid-life (one batch, 20000 h)", {20000.0, 20000.0}},
      {"all near end-of-life (one batch, 28000 h)", {28000.0, 28000.0}},
      {"rolling procurement (28000 / 0 h)", {28000.0, 0.0}},
  };
  const double shapes[] = {1.0, 2.0, 4.0};

  SweepSpec spec;
  for (const FleetCase& fleet : cases) {
    for (const double shape : shapes) {
      spec.AddCell(CellLabel(fleet.name, shape), Fleet(shape, fleet.ages));
    }
  }

  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = mission;
  // Every cell reuses the root-seed trial streams, so each cell's estimate
  // is byte-identical to a one-cell sweep of that fleet.
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  options.mc.trials = 6000;
  options.mc.seed = 404;
  const SweepResult result = SweepRunner().Run(spec, options);

  Table table({"fleet composition", "memoryless (shape 1)",
               "mild wear-out (shape 2)", "strong wear-out (shape 4)"});
  for (const FleetCase& fleet : cases) {
    std::vector<std::string> row = {fleet.name};
    for (const double shape : shapes) {
      row.push_back(Table::FmtSci(
          result.ByLabel(CellLabel(fleet.name, shape)).loss->probability(), 2));
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s", table.Render().c_str());

  std::printf(
      "\nReading down the shape-4 column: under strong wear-out, an end-of-life\n"
      "batch is orders of magnitude likelier to lose data than a staggered fleet\n"
      "with the *same* oldest member — simultaneous aging is a correlation channel\n"
      "all by itself. The memoryless column is flat across rows (ages cannot\n"
      "matter), which doubles as a correctness check on the age machinery. This\n"
      "is §6.5's case for rolling procurements: \"differences in storage\n"
      "technologies and vendors over time naturally provide hardware\n"
      "heterogeneity.\"\n");
  return 0;
}
