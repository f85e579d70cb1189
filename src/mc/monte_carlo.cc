// Thin wrappers over the sweep engine: every estimator is a one-cell sweep
// executed on the shared WorkerPool (src/sweep/), with the root seed used
// directly so trial k draws from the stream DeriveSeed(seed, k) — exactly
// the contract the header documents. The per-call thread spawn/join that
// used to live here is gone; parallelism, deterministic block aggregation,
// and adaptive stopping are all the sweep engine's.

#include "src/mc/monte_carlo.h"

#include <stdexcept>

#include "src/sweep/sweep.h"

namespace longstore {
namespace {

SweepOptions BaseOptions(const McConfig& mc) {
  SweepOptions options;
  options.mc = mc;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  return options;
}

}  // namespace

MttdlEstimate EstimateMttdl(const Scenario& scenario, const McConfig& mc) {
  SweepOptions options = BaseOptions(mc);
  options.estimand = SweepOptions::Estimand::kMttdl;
  return *SweepRunner().Run(SweepSpec(scenario), options).cells.front().mttdl;
}

LossProbabilityEstimate EstimateLossProbability(const Scenario& scenario,
                                                Duration mission, const McConfig& mc) {
  SweepOptions options = BaseOptions(mc);
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = mission;
  return *SweepRunner().Run(SweepSpec(scenario), options).cells.front().loss;
}

CensoredMttdlEstimate EstimateMttdlCensored(const Scenario& scenario, Duration window,
                                            const McConfig& mc) {
  SweepOptions options = BaseOptions(mc);
  options.estimand = SweepOptions::Estimand::kCensoredMttdl;
  options.window = window;
  return *SweepRunner().Run(SweepSpec(scenario), options).cells.front().censored;
}

MttdlEstimate EstimateMttdlToPrecision(const Scenario& scenario, McConfig mc,
                                       double relative_precision, int64_t max_trials) {
  if (!(relative_precision > 0.0)) {
    throw std::invalid_argument("relative_precision must be positive");
  }
  SweepOptions options = BaseOptions(mc);
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.adaptive = true;
  options.relative_precision = relative_precision;
  options.max_trials = max_trials;  // validated (positive) by SweepRunner::Run
  return *SweepRunner().Run(SweepSpec(scenario), options).cells.front().mttdl;
}

}  // namespace longstore
