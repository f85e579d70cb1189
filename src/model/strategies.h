// The §6 reliability strategies expressed as transformations on FaultParams.
//
// Each function corresponds to one bullet of the paper's strategy list; the
// benches sweep them to regenerate the §5.4/§6 comparisons, and the frontier
// search (src/frontier) searches over their combinations under a budget.

#ifndef LONGSTORE_SRC_MODEL_STRATEGIES_H_
#define LONGSTORE_SRC_MODEL_STRATEGIES_H_

#include <string>

#include "src/model/fault_params.h"
#include "src/util/units.h"

namespace longstore {

// An audit policy determines the mean time to detect a latent fault (MDL).
struct ScrubPolicy {
  enum class Kind {
    kNone,         // latent faults are never proactively detected (MDL = ∞)
    kPeriodic,     // deterministic audit every `interval`; MDL = interval / 2
    kExponential,  // Poisson audits with mean spacing `interval`; MDL = interval
    kOnAccess,     // detection only by user access at mean interval `interval`
  };

  Kind kind = Kind::kNone;
  Duration interval = Duration::Infinite();

  static ScrubPolicy None() { return ScrubPolicy{Kind::kNone, Duration::Infinite()}; }
  static ScrubPolicy Periodic(Duration interval) {
    return ScrubPolicy{Kind::kPeriodic, interval};
  }
  // The paper's example: "scrub a replica 3 times a year ... MDL is 1460
  // hours (half of the scrubbing period)".
  static ScrubPolicy PeriodicPerYear(double audits_per_year) {
    return Periodic(Duration::Years(1.0 / audits_per_year));
  }
  static ScrubPolicy Exponential(Duration mean_interval) {
    return ScrubPolicy{Kind::kExponential, mean_interval};
  }
  static ScrubPolicy OnAccess(Duration mean_access_interval) {
    return ScrubPolicy{Kind::kOnAccess, mean_access_interval};
  }

  // Mean detection latency for a latent fault arriving at a uniformly random
  // time: interval/2 for periodic audits (fault lands uniformly within a
  // period), interval for memoryless audits and accesses.
  Duration MeanDetectionLatency() const;

  std::string ToString() const;
};

// Strategy: reduce MDL by auditing (§6.2). Returns params with MDL set from
// the policy.
FaultParams ApplyScrubPolicy(const FaultParams& params, const ScrubPolicy& policy);

// Strategy: increase MV / ML with better media or formats (§6.1). Factors
// must be >= 1 to be an upgrade but any positive factor is accepted (so
// benches can explore trade-offs where one is sacrificed for the other,
// §5.4 implication 1).
FaultParams ScaleFaultTimes(const FaultParams& params, double mv_factor, double ml_factor);

// Strategy: increase independence of replicas (§6.5): raises α toward 1.
FaultParams WithCorrelation(const FaultParams& params, double alpha);

// Derives MRV from drive geometry, the way the paper does for the Cheetah
// ("bandwidth of 300 MB/s and capacity of 146 GB, leading to MRV of 20
// minutes"): the time to re-copy a full replica at the given bandwidth.
// The paper's quoted 20 minutes corresponds to an effective (not peak)
// rebuild bandwidth of ~122 MB/s (PaperNumbersTest.CheetahMrvIsTwentyMinutes).
Duration RebuildTime(double capacity_gb, double bandwidth_mb_per_s);

}  // namespace longstore

#endif  // LONGSTORE_SRC_MODEL_STRATEGIES_H_
