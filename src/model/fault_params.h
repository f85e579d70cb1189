// Fault-process parameters for a unit of replicated data (paper §5.1–§5.2).
//
// The model is agnostic to the unit of replication: a bit, sector, file, disk
// or an entire storage site. The five mean times and the correlation factor
// below are exactly the quantities the paper names:
//
//   MV   mean time to a visible fault (detected as it occurs)
//   ML   mean time to a latent fault (silent until detected)
//   MRV  mean time to repair a visible fault
//   MRL  mean time to repair a latent fault once detected
//   MDL  mean time to *detect* a latent fault (audit/scrub latency)
//   α    correlation factor in (0, 1]: once one replica is faulty, the mean
//        time to the next fault on a surviving replica shrinks to α times its
//        independent value (§5.3). α = 1 means fully independent replicas.

#ifndef LONGSTORE_SRC_MODEL_FAULT_PARAMS_H_
#define LONGSTORE_SRC_MODEL_FAULT_PARAMS_H_

#include <optional>
#include <string>

#include "src/util/units.h"

namespace longstore {

struct FaultParams {
  Duration mv = Duration::Infinite();
  Duration ml = Duration::Infinite();
  Duration mrv = Duration::Zero();
  Duration mrl = Duration::Zero();
  Duration mdl = Duration::Zero();
  double alpha = 1.0;

  // Returns an error message if the parameters are out of range (non-positive
  // fault times, negative repair/detection times, alpha outside (0, 1]).
  std::optional<std::string> Validate() const;

  Rate visible_rate() const { return Rate::InverseOf(mv); }
  Rate latent_rate() const { return Rate::InverseOf(ml); }

  // The window of vulnerability after a latent first fault (§5.3): MDL + MRL.
  // After a visible first fault it is MRV itself.
  Duration LatentWov() const { return mdl + mrl; }

  // The paper's §5.4 lower bound for plausible correlation factors:
  // α ≥ 10 · MRV / MV ("correlated mean-time-to-second-fault is at least an
  // order of magnitude larger than the recovery time").
  double AlphaLowerBound() const;

  // Paper's running example (§5.4): Seagate Cheetah with MV = 1.4e6 h,
  // MRV = 20 min, latent faults five times as frequent as visible ones
  // (ML = MV / 5, following Schwarz et al.), MRL = MRV, and no detection
  // process (MDL infinite) until a scrub policy is applied.
  static FaultParams PaperCheetahExample();
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_MODEL_FAULT_PARAMS_H_
