// E15 (ablation): design choices the closed forms cannot see.
//
// The analytic model reduces every audit policy to a single number (MDL).
// The simulator distinguishes what that number hides:
//   (a) periodic vs memoryless audits at the same mean detection latency —
//       deterministic audits bound the worst case and trim the window tail;
//   (b) staggered vs aligned scrub phases across replicas — aligned audits
//       leave synchronized blind spots where simultaneous latent faults
//       (e.g. a corruption worm) sit undetected on every replica at once.
// Both are operator-controllable for free, which makes them ablation
// targets.

#include <cstdio>

#include "src/sweep/sweep.h"
#include "src/util/table.h"

namespace longstore {
namespace {

Scenario BaseScenario() {
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .FaultTimes(Duration::Hours(2000.0), Duration::Hours(400.0))
                       .RepairTimes(Duration::Hours(2.0), Duration::Hours(2.0)))
      .Build();
}

// Every replica audits under `policy`.
SweepSpec::ScenarioMutation ScrubAll(ScrubPolicy policy) {
  return [policy](Scenario& scenario) {
    for (ReplicaSpec& replica : scenario.replicas) {
      replica.scrub = policy;
    }
  };
}

}  // namespace
}  // namespace longstore

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E15 (ablation)", "audit-policy shape at fixed mean "
                            "detection latency")
                        .c_str());

  std::printf("Part 1: periodic vs Poisson audits, both with MDL = 40 h "
              "(time-compressed mirror)\n");
  // Both audit shapes run as one sweep (kSharedRoot: seed 151 names the same
  // trial streams for each policy, the pre-sweep convention).
  SweepSpec shape_spec(BaseScenario());
  shape_spec.AddAxis("audit policy")
      .AddPoint("poisson", 0.0, ScrubAll(ScrubPolicy::Exponential(Duration::Hours(40.0))))
      // The same mean detection latency as the Poisson audits.
      .AddPoint("periodic", 1.0, ScrubAll(ScrubPolicy::Periodic(Duration::Hours(80.0))));
  SweepOptions shape_options;
  shape_options.estimand = SweepOptions::Estimand::kMttdl;
  shape_options.mc.trials = 8000;
  shape_options.mc.seed = 151;
  shape_options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult shape_sweep = SweepRunner().Run(shape_spec, shape_options);
  const double poisson_mttdl =
      shape_sweep.ByLabel("poisson").mttdl->mean_years() * kHoursPerYear;
  const double periodic_mttdl =
      shape_sweep.ByLabel("periodic").mttdl->mean_years() * kHoursPerYear;

  Table shape({"audit policy", "MTTDL (MC)", "vs Poisson"});
  shape.AddRow({"Poisson, mean spacing 40 h", Table::Fmt(poisson_mttdl, 4) + " h",
                "1.00x"});
  shape.AddRow({"periodic, every 80 h", Table::Fmt(periodic_mttdl, 4) + " h",
                Table::Fmt(periodic_mttdl / poisson_mttdl, 3) + "x"});
  std::printf("%s", shape.Render().c_str());
  std::printf("\nDeterministic audits cap the detection wait at one period, so the "
              "window-of-\nvulnerability tail (which drives double faults) is "
              "shorter at equal mean MDL.\n\n");

  std::printf("Part 2: staggered vs aligned scrub phases under a corruption worm\n");
  // Three replicas, the worm silently corrupts replicas 0 and 1 together.
  auto worm_scenario = [](bool staggered) {
    ScenarioBuilder builder;
    builder
        .Replicas(3, ReplicaSpec()
                         .FaultTimes(Duration::Hours(1e9), Duration::Hours(3000.0))
                         .RepairTimes(Duration::Hours(2.0), Duration::Hours(2.0))
                         .ScrubEvery(Duration::Hours(240.0)))
        .CommonMode(CommonModeSource{"corruption worm", Rate::PerHour(1.0 / 20000.0),
                                     {0, 1}, 1.0, /*visible_fraction=*/0.0});
    if (!staggered) {
      builder.AlignedScrubs();
    }
    return builder.Build();
  };
  SweepSpec worm_spec;
  worm_spec.AddCell("staggered", worm_scenario(true));
  worm_spec.AddCell("aligned", worm_scenario(false));
  SweepOptions worm_options;
  worm_options.estimand = SweepOptions::Estimand::kLossProbability;
  worm_options.mission = Duration::Years(20.0);
  worm_options.mc.trials = 8000;
  worm_options.mc.seed = 173;
  worm_options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult worm_sweep = SweepRunner().Run(worm_spec, worm_options);

  Table phases({"phase layout", "P(loss in 20 y)", "mean detection latency"});
  for (bool staggered : {true, false}) {
    const LossProbabilityEstimate& estimate =
        *worm_sweep.ByLabel(staggered ? "staggered" : "aligned").loss;
    phases.AddRow(
        {staggered ? "staggered (audits spread across the period)"
                   : "aligned (all replicas audited together)",
         Table::Fmt(estimate.probability(), 3) + " [" +
             Table::Fmt(estimate.wilson_ci.lo, 3) + ", " +
             Table::Fmt(estimate.wilson_ci.hi, 3) + "]",
         Duration::Hours(
             estimate.aggregate_metrics.detection_latency_hours.mean())
             .ToString()});
  }
  std::printf("%s", phases.Render().c_str());
  std::printf(
      "\nStaggering is free worst-case insurance: when a common-mode event corrupts\n"
      "several replicas at once, staggered audits catch the first copy after at\n"
      "most period/replicas instead of leaving all copies blind until the next\n"
      "synchronized pass. The mean MDL is identical — only the simulator, not the\n"
      "closed forms, can rank the two layouts.\n");
  return 0;
}
