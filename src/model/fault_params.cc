#include "src/model/fault_params.h"

namespace longstore {

std::optional<std::string> FaultParams::Validate() const {
  if (!(mv.hours() > 0.0)) {
    return "MV (mean time to visible fault) must be positive";
  }
  if (!(ml.hours() > 0.0)) {
    return "ML (mean time to latent fault) must be positive";
  }
  if (mrv.is_negative() || mrv.is_infinite()) {
    return "MRV (mean visible repair time) must be finite and non-negative";
  }
  if (mrl.is_negative() || mrl.is_infinite()) {
    return "MRL (mean latent repair time) must be finite and non-negative";
  }
  if (mdl.is_negative()) {
    return "MDL (mean latent detection time) must be non-negative";
  }
  if (!(alpha > 0.0) || alpha > 1.0) {
    return "alpha (correlation factor) must lie in (0, 1]";
  }
  return std::nullopt;
}

double FaultParams::AlphaLowerBound() const {
  if (mv.is_infinite()) {
    return 0.0;
  }
  return 10.0 * mrv.hours() / mv.hours();
}

FaultParams FaultParams::PaperCheetahExample() {
  FaultParams p;
  p.mv = Duration::Hours(1.4e6);
  p.ml = Duration::Hours(2.8e5);  // five times the visible fault rate
  p.mrv = Duration::Minutes(20.0);
  p.mrl = Duration::Minutes(20.0);
  p.mdl = Duration::Infinite();  // no scrubbing until a policy is applied
  p.alpha = 1.0;
  return p;
}

}  // namespace longstore
