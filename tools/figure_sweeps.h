// Shared golden-figure sweep definitions for the command-line tools.
//
// The §5.4 Cheetah sweep is the repo's cross-process golden:
// bench_scrubbing_effect prints it in-process, sweep_fleet replays it
// through a worker fleet (the figure CI's rng-stream-compat and fleet-chaos
// jobs diff), and the sweep service answers it from its cache — and every
// one of those paths must print byte-identical cells. Every one of them
// builds the cells here, which keeps "the same sweep" a fact rather than a
// convention.

#ifndef LONGSTORE_TOOLS_FIGURE_SWEEPS_H_
#define LONGSTORE_TOOLS_FIGURE_SWEEPS_H_

#include "src/model/fault_params.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"

namespace longstore {

// The §5.4 running example's Monte Carlo sweep, the simulation column of
// bench_scrubbing_effect — which makes the --cheetah output of every tool a
// golden figure CI can regenerate through any amount of injected chaos (or
// any cache temperature).
inline void BuildCheetahSweep(SweepSpec* spec, SweepOptions* options) {
  const FaultParams unscrubbed = FaultParams::PaperCheetahExample();
  const FaultParams scrubbed =
      ApplyScrubPolicy(unscrubbed, ScrubPolicy::PeriodicPerYear(3.0));
  const FaultParams correlated = WithCorrelation(scrubbed, 0.1);
  struct Case {
    const char* name;
    FaultParams params;
  };
  const Case cases[] = {
      {"no scrubbing (MDL = inf)", unscrubbed},
      {"scrub 3x/year (MDL = 1460 h)", scrubbed},
      {"scrub 3x/year, alpha = 0.1", correlated},
  };
  spec->AddAxis("configuration");
  for (const Case& c : cases) {
    const FaultParams params = c.params;
    spec->AddPoint(c.name, 0.0, [params](Scenario& scenario) {
      scenario.replicas.assign(2, SpecFromParams(params));
      scenario.alpha = params.alpha;
    });
  }
  options->estimand = SweepOptions::Estimand::kMttdl;
  options->mc.trials = 4000;
  options->mc.seed = 33;
  options->seed_mode = SweepOptions::SeedMode::kSharedRoot;
}

}  // namespace longstore

#endif  // LONGSTORE_TOOLS_FIGURE_SWEEPS_H_
