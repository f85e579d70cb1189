// Quickstart: how reliable is a mirrored archive, and what does scrubbing buy?
//
// Walks the library's three levels of answer for the paper's §5.4 example:
//   1. closed forms (instant, the paper's equations),
//   2. exact CTMC (instant, exact for the modeled process),
//   3. Monte Carlo simulation (samples the same process event by event).

#include <cstdio>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

int main() {
  using namespace longstore;

  // 1. Describe the unit of replication. These are the paper's Cheetah
  //    figures: visible faults every 1.4e6 hours, latent faults five times
  //    as often, 20-minute rebuilds.
  FaultParams params = FaultParams::PaperCheetahExample();

  // 2. Pick an audit policy. Scrubbing three times a year means a latent
  //    fault waits on average half the audit interval (1460 h) undetected.
  const ScrubPolicy scrub = ScrubPolicy::PeriodicPerYear(3.0);
  params = ApplyScrubPolicy(params, scrub);

  std::printf("Mirrored pair, %s\n\n", scrub.ToString().c_str());

  // 3. Closed forms: the paper's regime-matched equation and the master
  //    closed form (eq 8).
  std::printf("analytic   : paper-eq MTTDL = %s   (regime: %s)\n",
              MttdlPaperChoice(params).ToString().c_str(),
              std::string(ModelRegimeName(ClassifyRegime(params))).c_str());
  std::printf("             eq 8 MTTDL     = %s\n",
              MttdlClosedForm(params).ToString().c_str());

  // 4. Exact CTMC, physical convention (both replicas' fault clocks run).
  const auto exact = MirroredMttdl(params, RateConvention::kPhysical);
  const auto loss50 = MirroredLossProbability(params, Duration::Years(50.0),
                                              RateConvention::kPhysical);
  std::printf("exact CTMC : MTTDL = %s, P(loss in 50 y) = %s\n",
              exact->ToString().c_str(), Table::FmtPercent(*loss50).c_str());

  // 5. Monte Carlo: simulate the archive to data loss, many times. The
  //    simulator runs a Scenario: one ReplicaSpec per replica, here two
  //    copies with the pair's fault and repair times, audited by `scrub`.
  const Scenario scenario =
      ScenarioBuilder().Replicas(2, SpecFromParams(params).ScrubWith(scrub)).Build();
  McConfig mc;
  mc.trials = 3000;
  mc.seed = 42;
  const MttdlEstimate estimate = EstimateMttdl(scenario, mc);
  std::printf("simulation : MTTDL = %.0f y  (95%% CI [%.0f, %.0f], %lld trials)\n",
              estimate.mean_years(), estimate.ci_years.lo, estimate.ci_years.hi,
              static_cast<long long>(estimate.loss_time_years.count()));
  std::printf("             measured mean detection latency = %.0f h "
              "(policy MDL = %.0f h)\n",
              estimate.aggregate_metrics.detection_latency_hours.mean(),
              params.mdl.hours());

  // 6. The headline comparison: the same pair without any scrubbing.
  const FaultParams unscrubbed = FaultParams::PaperCheetahExample();
  const auto unscrubbed_mttdl = MirroredMttdl(unscrubbed, RateConvention::kPhysical);
  std::printf("\nwithout scrubbing the same pair lasts %s — auditing buys a factor "
              "of ~%.0f.\n",
              unscrubbed_mttdl->ToString().c_str(),
              exact->hours() / unscrubbed_mttdl->hours());
  return 0;
}
