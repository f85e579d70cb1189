#include "src/model/strategies.h"

#include <cstdio>
#include <stdexcept>

namespace longstore {

Duration ScrubPolicy::MeanDetectionLatency() const {
  switch (kind) {
    case Kind::kNone:
      return Duration::Infinite();
    case Kind::kPeriodic:
      return interval / 2.0;
    case Kind::kExponential:
    case Kind::kOnAccess:
      return interval;
  }
  return Duration::Infinite();
}

std::string ScrubPolicy::ToString() const {
  char buf[96];
  switch (kind) {
    case Kind::kNone:
      return "no audit";
    case Kind::kPeriodic:
      std::snprintf(buf, sizeof(buf), "periodic audit every %s", interval.ToString().c_str());
      return buf;
    case Kind::kExponential:
      std::snprintf(buf, sizeof(buf), "Poisson audit, mean spacing %s",
                    interval.ToString().c_str());
      return buf;
    case Kind::kOnAccess:
      std::snprintf(buf, sizeof(buf), "on-access detection, mean access interval %s",
                    interval.ToString().c_str());
      return buf;
  }
  return "?";
}

FaultParams ApplyScrubPolicy(const FaultParams& params, const ScrubPolicy& policy) {
  FaultParams out = params;
  out.mdl = policy.MeanDetectionLatency();
  return out;
}

FaultParams ScaleFaultTimes(const FaultParams& params, double mv_factor, double ml_factor) {
  if (!(mv_factor > 0.0) || !(ml_factor > 0.0)) {
    throw std::invalid_argument("ScaleFaultTimes: factors must be positive");
  }
  FaultParams out = params;
  out.mv = params.mv * mv_factor;
  out.ml = params.ml * ml_factor;
  return out;
}

FaultParams WithCorrelation(const FaultParams& params, double alpha) {
  FaultParams out = params;
  out.alpha = alpha;
  return out;
}

Duration RebuildTime(double capacity_gb, double bandwidth_mb_per_s) {
  if (!(capacity_gb > 0.0) || !(bandwidth_mb_per_s > 0.0)) {
    throw std::invalid_argument("RebuildTime: capacity and bandwidth must be positive");
  }
  const double seconds = capacity_gb * 1000.0 / bandwidth_mb_per_s;
  return Duration::Seconds(seconds);
}

}  // namespace longstore
