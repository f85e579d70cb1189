// Monte Carlo estimation of MTTDL and mission-loss probability by repeated
// simulation of the replicated-storage system.
//
// Every estimator here is a thin wrapper over the sweep engine
// (src/sweep/): trials run as fixed-size blocks on the process-wide
// WorkerPool instead of per-call spawned threads, and block accumulators are
// folded in trial order. Determinism: trial k always uses the stream
// DeriveSeed(seed, k) and the fold structure depends only on the trial
// count, so estimates are bit-identical regardless of thread count and
// scheduling — including the aggregate mean/CI, not just per-trial outcomes.

#ifndef LONGSTORE_SRC_MC_MONTE_CARLO_H_
#define LONGSTORE_SRC_MC_MONTE_CARLO_H_

#include <cstdint>
#include <optional>

#include "src/storage/metrics.h"
#include "src/storage/replicated_system.h"
#include "src/util/stats.h"
#include "src/util/units.h"

namespace longstore {

struct McConfig {
  int64_t trials = 10000;
  uint64_t seed = 0x10ca1c0ffee;
  // Caps the worker-pool lanes used for this estimate; 0 = all pool workers
  // (hardware concurrency). Never changes results, only wall clock.
  int threads = 0;
  // Safety cap per MTTDL trial; trials that survive this long are censored
  // (counted, and a lower-bound estimate is reported).
  Duration max_trial_time = Duration::Years(100.0e6);
  double confidence = 0.95;
};

struct MttdlEstimate {
  // Over uncensored trials; values in years.
  RunningStats loss_time_years;
  int64_t censored_trials = 0;
  Interval ci_years;  // normal-approximation CI on the mean

  SimMetrics aggregate_metrics;

  double mean_years() const { return loss_time_years.mean(); }
};

struct LossProbabilityEstimate {
  int64_t trials = 0;
  int64_t losses = 0;
  Interval wilson_ci;
  SimMetrics aggregate_metrics;

  double probability() const {
    return trials > 0 ? static_cast<double>(losses) / static_cast<double>(trials) : 0.0;
  }
};

// Simulates each trial to data loss (or the safety cap) and averages. Every
// estimator takes a Scenario; heterogeneous fleets are welcome.
MttdlEstimate EstimateMttdl(const Scenario& scenario, const McConfig& mc);

// Simulates each trial over `mission` and counts losses (paper eq 1's
// empirical counterpart, e.g. "probability of data loss in 50 years").
LossProbabilityEstimate EstimateLossProbability(const Scenario& scenario,
                                                Duration mission, const McConfig& mc);

// Runs trials in geometrically growing rounds (mc.trials, then x4 per
// round) until the CI half-width falls below `relative_precision` of the
// mean or `max_trials` is reached, and returns the final estimate. Rounds
// accumulate: trials from earlier rounds are kept (the trial-index stream
// simply extends), so reaching precision p costs exactly the trials the
// final estimate is built from — not a fresh restart per round.
MttdlEstimate EstimateMttdlToPrecision(const Scenario& scenario, McConfig mc,
                                       double relative_precision, int64_t max_trials);

// Censored (type-I) MTTDL estimation: every trial runs for at most `window`
// of simulated time, and the exponential maximum-likelihood estimator
//   MTTDL ≈ total observed time / number of losses
// is applied. Far cheaper than EstimateMttdl when MTTDL greatly exceeds a
// feasible trial length (millennia-scale archives): trials cost O(window)
// regardless of MTTDL. Valid when the time-to-loss is approximately
// exponential, i.e. the window exceeds the chain's mixing time — true in
// every rare-loss regime this library targets.
struct CensoredMttdlEstimate {
  int64_t trials = 0;
  int64_t losses = 0;
  double observed_years = 0.0;  // total time at risk across trials
  Duration mttdl = Duration::Infinite();
  // CI from the Poisson uncertainty on the loss count; hi is infinite when
  // no losses were observed (the estimate is then a lower bound).
  Interval ci_years;
  SimMetrics aggregate_metrics;
};

CensoredMttdlEstimate EstimateMttdlCensored(const Scenario& scenario,
                                            Duration window, const McConfig& mc);

}  // namespace longstore

#endif  // LONGSTORE_SRC_MC_MONTE_CARLO_H_
