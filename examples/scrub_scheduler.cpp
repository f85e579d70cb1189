// Scrub scheduler: choosing an audit strategy for a real archive.
//
// Compares detection policies — none, on-access only (the archival trap:
// "the average data item is accessed infrequently"), Poisson opportunistic
// audits, and periodic scrubbing at several frequencies — on the same
// 3-replica consumer-disk archive, by simulation. Reports measured detection
// latency, the latent-fault backlog dynamics, and mission survival.

#include <cstdio>

#include "src/drives/drive_specs.h"
#include "src/drives/offline_media.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

int main() {
  using namespace longstore;

  const DriveSpec drive = SeagateBarracuda200Gb();
  std::printf("3-replica archive on %s; latent faults 5x visible (Schwarz et al.)\n\n",
              drive.model.c_str());

  struct Strategy {
    const char* name;
    ScrubPolicy policy;
  };
  const Strategy strategies[] = {
      {"no auditing at all", ScrubPolicy::None()},
      // A popular item is read once a year; archival items far less often.
      {"on-access only (mean 5 y between reads)",
       ScrubPolicy::OnAccess(Duration::Years(5.0))},
      {"opportunistic audits (Poisson, mean 4 months)",
       ScrubPolicy::Exponential(Duration::Years(1.0 / 3.0))},
      {"periodic scrub 3x/year", ScrubPolicy::PeriodicPerYear(3.0)},
      {"periodic scrub monthly", ScrubPolicy::PeriodicPerYear(12.0)},
      {"periodic scrub weekly", ScrubPolicy::PeriodicPerYear(52.0)},
  };

  // One sweep runs all six detection strategies' trials together on the
  // shared worker pool (kSharedRoot: seed 7 names the same trial streams in
  // every cell, matching the original one-call-per-strategy output).
  SweepSpec spec;
  spec.AddAxis("strategy");
  for (const Strategy& strategy : strategies) {
    spec.AddPoint(strategy.name, 0.0, [&drive, &strategy](Scenario& scenario) {
      const FaultParams params = OnlineReplicaParams(drive, strategy.policy);
      scenario.replicas.assign(3, SpecFromParams(params).ScrubWith(strategy.policy));
      scenario.alpha = params.alpha;
    });
  }
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Years(50.0);
  options.mc.trials = 2000;
  options.mc.seed = 7;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult sweep = SweepRunner().Run(spec, options);

  Table table({"strategy", "policy MDL", "measured MDL", "latent found",
               "P(survive 50 y)"});
  for (const Strategy& strategy : strategies) {
    const LossProbabilityEstimate& estimate = *sweep.ByLabel(strategy.name).loss;
    const RunningStats& latency =
        estimate.aggregate_metrics.detection_latency_hours;
    table.AddRow(
        {strategy.name, strategy.policy.MeanDetectionLatency().ToString(),
         latency.count() > 0 ? Duration::Hours(latency.mean()).ToString() : "n/a",
         std::to_string(estimate.aggregate_metrics.latent_detections),
         Table::FmtPercent(1.0 - estimate.probability(), 2) + " [" +
             Table::FmtPercent(1.0 - estimate.wilson_ci.hi, 2) + ", " +
             Table::FmtPercent(1.0 - estimate.wilson_ci.lo, 2) + "]"});
  }
  std::printf("%s", table.Render().c_str());

  std::printf(
      "\nThe archival lesson (§6.2): user accesses cannot be the detection\n"
      "process — at multi-year access intervals latent faults accumulate\n"
      "faster than they surface, and survival collapses toward the unaudited\n"
      "case. Any proactive audit, even a casual opportunistic one, recovers\n"
      "most of the reliability; frequency then trades linearly against MDL.\n");
  return 0;
}
