#include "src/rare/rare_event.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/random.h"

namespace longstore {
namespace {

// Stream-id offset for pilot candidates: keeps every candidate's trial
// streams disjoint from each other and from the final estimate (which uses
// the root seed directly, matching the one-cell estimators in src/sweep).
constexpr uint64_t kPilotStreamTag = 0x9a7e5eedULL;

WeightedLossProbabilityEstimate RunWeighted(const Scenario& scenario,
                                            Duration mission, const McConfig& mc,
                                            const FaultBias& bias) {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kWeightedLossProbability;
  options.mission = mission;
  options.bias = bias;
  options.mc = mc;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult result = SweepRunner().Run(SweepSpec(scenario), options);
  return *result.cells.front().weighted;
}

std::vector<double> DefaultThetaGrid() {
  return {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0};
}

}  // namespace

FaultBias TuneFaultBias(const Scenario& scenario, Duration mission,
                        const McConfig& mc, const IsOptions& options,
                        std::vector<PilotPoint>* pilot_out) {
  if (options.pilot_trials <= 0) {
    throw std::invalid_argument("TuneFaultBias: pilot_trials must be positive");
  }
  const std::vector<double> grid =
      options.theta_grid.empty() ? DefaultThetaGrid() : options.theta_grid;

  // Candidates: the identity measure (plain MC — the tuner must be able to
  // conclude that no bias is needed), forcing alone, then each grid
  // multiplier with forcing. The tilt goes on the fault kind that drives
  // loss: latent faults when the config has them (their windows are what
  // kills archives), visible otherwise. Tilting the other kind as well only
  // multiplies repair churn — and with it weight-carrying draws.
  // A heterogeneous fleet tilts latent faults if *any* replica has them.
  bool tilt_latent = false;
  for (const ReplicaSpec& spec : scenario.replicas) {
    if (!spec.ml.is_infinite()) {
      tilt_latent = true;
      break;
    }
  }
  std::vector<FaultBias> candidates;
  candidates.push_back(FaultBias{});
  {
    FaultBias forcing_only;
    forcing_only.force_probability = options.force_probability;
    candidates.push_back(forcing_only);
  }
  for (const double theta : grid) {
    FaultBias bias;
    (tilt_latent ? bias.theta_latent : bias.theta_visible) = theta;
    bias.force_probability = options.force_probability;
    candidates.push_back(bias);
  }

  std::vector<PilotPoint> pilot;
  pilot.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    McConfig pilot_mc = mc;
    pilot_mc.trials = options.pilot_trials;
    pilot_mc.seed = DeriveSeed(mc.seed, kPilotStreamTag + i);
    const WeightedLossProbabilityEstimate estimate =
        RunWeighted(scenario, mission, pilot_mc, candidates[i]);
    PilotPoint point;
    point.bias = candidates[i];
    point.hits = estimate.hits;
    point.probability = estimate.probability();
    point.relative_error = estimate.relative_error;
    point.effective_sample_size = estimate.effective_sample_size;
    pilot.push_back(point);
  }

  // Best trusted score, i.e. smallest relative error with enough hits and
  // effective samples behind it (a low relative error on a tiny ESS is the
  // classic importance-sampling self-deception: the weights that matter
  // have not been seen yet). The <= on ties prefers the stronger tilt,
  // which has observed the loss mechanism more often.
  const PilotPoint* best = nullptr;
  for (const PilotPoint& point : pilot) {
    if (point.hits < options.min_pilot_hits ||
        point.effective_sample_size < options.min_pilot_ess) {
      continue;
    }
    if (best == nullptr || point.relative_error <= best->relative_error) {
      best = &point;
    }
  }
  if (best == nullptr) {
    // The event is so rare that no candidate collected min_pilot_hits in the
    // pilot; fall back to whichever saw the most losses, breaking ties
    // toward the strongest tilt (candidates are ordered weak to strong).
    for (const PilotPoint& point : pilot) {
      if (best == nullptr || point.hits >= best->hits) {
        best = &point;
      }
    }
  }
  if (pilot_out != nullptr) {
    *pilot_out = std::move(pilot);
  }
  return best->bias;
}

IsLossProbabilityEstimate EstimateLossProbabilityIS(const Scenario& scenario,
                                                    Duration mission,
                                                    const McConfig& mc,
                                                    const IsOptions& options) {
  IsLossProbabilityEstimate result;
  if (options.bias.has_value()) {
    if (auto error = options.bias->Validate()) {
      throw std::invalid_argument("FaultBias: " + *error);
    }
    result.bias = *options.bias;
  } else {
    result.bias = TuneFaultBias(scenario, mission, mc, options, &result.pilot);
    result.pilot_trials_total =
        static_cast<int64_t>(result.pilot.size()) * options.pilot_trials;
  }
  result.estimate = RunWeighted(scenario, mission, mc, result.bias);
  return result;
}

}  // namespace longstore
