// E1 / Figure 1: types of replica faults.
//
// The paper's Figure 1 is a conceptual timeline: a visible fault is detected
// the moment it occurs and recovery begins immediately; a latent fault sits
// silent until a detection process finds it, and only then is it repaired.
// This bench regenerates that figure from *executed* histories: it runs the
// mirrored-pair simulator twice (with and without a scrubbing process) and
// renders the per-replica timelines, so the lifecycle stages
// (occur -> [detect] -> repair) are measured rather than drawn.

#include <cstdio>

#include "src/sim/trace.h"
#include "src/storage/replicated_system.h"
#include "src/util/table.h"

namespace longstore {
namespace {

Scenario DemoScenario(ScrubPolicy scrub) {
  // Compressed timescales so a 12-year window shows several complete fault
  // lifecycles; latent faults outnumber visible ones as in §5.4, and repair
  // is slow enough to be visible as an interval in a 96-column lane.
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .FaultTimes(Duration::Years(3.0), Duration::Years(1.5))
                       .RepairTimes(Duration::Days(20.0), Duration::Days(20.0))
                       .DeterministicRepair()
                       .ScrubWith(scrub))
      .Build();
}

void RunAndRender(const char* title, const Scenario& scenario, uint64_t seed,
                  Duration horizon) {
  Simulator sim;
  Rng rng(seed);
  TraceRecorder trace;
  ReplicatedStorageSystem system(&sim, &rng, scenario, &trace);
  system.Start();
  sim.RunUntil(horizon);

  std::printf("--- %s ---\n", title);
  std::printf("%s\n",
              RenderTimeline(trace.events(), scenario.replica_count(), horizon, 96)
                  .c_str());
  const SimMetrics& m = system.metrics();
  std::printf("visible faults: %lld   latent faults: %lld   detections: %lld   "
              "repairs: %lld   data loss: %s\n\n",
              static_cast<long long>(m.visible_faults),
              static_cast<long long>(m.latent_faults),
              static_cast<long long>(m.latent_detections),
              static_cast<long long>(m.repairs_completed),
              system.lost() ? system.loss_time().ToString().c_str() : "none");
}

}  // namespace
}  // namespace longstore

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E1 (Figure 1)", "fault lifecycles on a mirrored pair — "
                            "executed timelines")
                        .c_str());
  const Duration horizon = Duration::Years(12.0);

  RunAndRender("with scrubbing (periodic audit every 3 months; latent faults are "
               "detected mid-lane and repaired)",
               DemoScenario(ScrubPolicy::Periodic(Duration::Years(0.25))),
               /*seed=*/2024, horizon);

  RunAndRender("without scrubbing (latent faults persist as '~' until a second "
               "fault ends the run)",
               DemoScenario(ScrubPolicy::None()), /*seed=*/2024, horizon);

  std::printf("Reading: 'V' opens a repair interval '=' immediately; 'L' opens a "
              "silent interval '~'\nthat becomes '=' only at 'D' (audit detection). "
              "Without audits the '~' interval is\nunbounded — the window of "
              "vulnerability of §5.3.\n");
  return 0;
}
