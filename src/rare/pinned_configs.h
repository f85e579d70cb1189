// The pinned rare-loss configuration shared by the CI performance gate
// (bench/bench_rare_perf.cc) and the rare-event test suite
// (tests/rare_event_test.cc). Both assert the same >= 10x
// trials-to-equal-CI bar against naive Monte Carlo on exactly this config;
// keeping it in one place keeps the gate and the test honest about testing
// the same thing. Mission-loss probability ~2.4e-6 per year (exact via the
// mirrored CTMC), i.e. ~4e7 naive trials for 10% relative error.

#ifndef LONGSTORE_SRC_RARE_PINNED_CONFIGS_H_
#define LONGSTORE_SRC_RARE_PINNED_CONFIGS_H_

#include "src/model/fault_params.h"
#include "src/scenario/media.h"
#include "src/scenario/scenario.h"

namespace longstore {

// The fault parameters the exact CTMC solves.
inline FaultParams PinnedRareLossParams() {
  FaultParams params;
  params.mv = Duration::Hours(1.0e6);
  params.ml = Duration::Hours(5.0e5);
  params.mrv = Duration::Hours(2.0);
  params.mrl = Duration::Hours(2.0);
  params.mdl = Duration::Hours(20.0);
  return params;
}

// The simulated mirrored pair: MDL realized as exponential scrubs, the
// detection process the CTMC models exactly.
inline Scenario PinnedRareLossScenario() {
  return ScenarioBuilder().Replicas(2, SpecFromParams(PinnedRareLossParams())).Build();
}

}  // namespace longstore

#endif  // LONGSTORE_SRC_RARE_PINNED_CONFIGS_H_
