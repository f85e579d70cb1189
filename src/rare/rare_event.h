// Rare-event estimation of mission-loss probabilities by importance
// sampling.
//
// Plain Monte Carlo (the kLossProbability sweep estimand, src/sweep) needs
// ~100/p trials to pin a loss probability p to 10% relative error: 1e10
// trials for p = 1e-8. The importance-sampled estimator here runs the same
// simulator under a tilted fault measure (src/rare/biased_sampler.h) in
// which losses are common, weights each loss by its exact likelihood ratio,
// and recovers the nominal probability unbiasedly — typically reaching the
// same CI in 10x to many 1000x fewer trials, the gap growing as the event
// gets rarer.
//
// The change of measure can be given explicitly or auto-tuned: a short
// pilot run scores a grid of hazard multipliers by estimated relative error
// and picks the best. See src/rare/README.md for the estimator math and for
// when to prefer IS over censored-MLE MTTDL or plain Monte Carlo.

#ifndef LONGSTORE_SRC_RARE_RARE_EVENT_H_
#define LONGSTORE_SRC_RARE_RARE_EVENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/rare/biased_sampler.h"
#include "src/sweep/sweep.h"

namespace longstore {

struct IsOptions {
  // Explicit change of measure. Unset (the default) auto-tunes one from a
  // pilot run.
  std::optional<FaultBias> bias;

  // Auto-tuner knobs. Candidates are: the identity measure, forcing alone,
  // and each `theta_grid` multiplier applied to the fault kind that drives
  // loss (latent when latent faults exist, visible otherwise — tilting the
  // visible hazard in a latent-dominated config only churns repairs and
  // degrades the weights). Empty grid means the default ladder
  // {2, 4, ..., 256}. A candidate's relative-error score is only trusted at
  // `min_pilot_hits`+ observed losses and `min_pilot_ess`+ effective
  // samples; with no trustworthy candidate the most-hits one wins.
  std::vector<double> theta_grid;
  int64_t pilot_trials = 2000;
  double force_probability = 0.5;
  int64_t min_pilot_hits = 5;
  double min_pilot_ess = 8.0;
};

// One auto-tuner candidate's pilot outcome.
struct PilotPoint {
  FaultBias bias;
  int64_t hits = 0;
  double probability = 0.0;
  double relative_error = 0.0;
  double effective_sample_size = 0.0;
};

struct IsLossProbabilityEstimate {
  WeightedLossProbabilityEstimate estimate;
  // The measure the final estimate ran under (tuned or explicit).
  FaultBias bias;
  // Tuning cost and per-candidate diagnostics; empty/zero when `bias` was
  // given explicitly.
  int64_t pilot_trials_total = 0;
  std::vector<PilotPoint> pilot;

  double probability() const { return estimate.probability(); }
};

// Picks a FaultBias for the scenario/mission by pilot runs: the candidate
// with the smallest estimated relative error among those with at least
// min_pilot_hits losses, falling back to the candidate with the most
// losses (largest tilt on ties) when none has enough. Deterministic in
// mc.seed. If `pilot_out` is non-null it receives every candidate's pilot
// diagnostics. Heterogeneous fleets tilt the latent hazard if any replica
// has latent faults.
FaultBias TuneFaultBias(const Scenario& scenario, Duration mission,
                        const McConfig& mc, const IsOptions& options = {},
                        std::vector<PilotPoint>* pilot_out = nullptr);

// Importance-sampled counterpart of the kLossProbability estimand: mc.trials
// weighted trials over `mission` under the (explicit or tuned) bias.
// Deterministic in mc.seed regardless of the pool's size, like every sweep
// estimate. With the identity bias this reproduces the unbiased estimator's
// trial outcomes bit for bit.
IsLossProbabilityEstimate EstimateLossProbabilityIS(const Scenario& scenario,
                                                    Duration mission,
                                                    const McConfig& mc,
                                                    const IsOptions& options = {});

}  // namespace longstore

#endif  // LONGSTORE_SRC_RARE_RARE_EVENT_H_
