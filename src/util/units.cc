#include "src/util/units.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace longstore {

std::string Duration::ToString() const {
  if (is_infinite()) {
    return "inf";
  }
  char buf[64];
  const double h = hours_;
  const double abs_h = std::fabs(h);
  if (abs_h >= kHoursPerYear) {
    std::snprintf(buf, sizeof(buf), "%.6g y", h / kHoursPerYear);
  } else if (abs_h >= kHoursPerDay) {
    std::snprintf(buf, sizeof(buf), "%.6g d", h / kHoursPerDay);
  } else if (abs_h >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.6g h", h);
  } else if (abs_h >= 1.0 / kMinutesPerHour) {
    std::snprintf(buf, sizeof(buf), "%.6g min", h * kMinutesPerHour);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g s", h * kSecondsPerHour);
  }
  return buf;
}

double MissionLossProbability(Duration mttf, Duration mission) {
  if (mttf.is_infinite()) {
    return 0.0;
  }
  if (mttf.hours() <= 0.0) {
    return 1.0;
  }
  return -std::expm1(-mission.hours() / mttf.hours());
}

double ClampProbability(double p) { return std::clamp(p, 0.0, 1.0); }

}  // namespace longstore
