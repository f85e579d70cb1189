// Strong unit types for the longstore library.
//
// All internal time arithmetic is carried out in hours (the unit used by the
// paper's spec-sheet inputs, e.g. MV = 1.4e6 hours). Strong types keep hour /
// year / second confusions out of the model code; raw doubles appear only at
// formatting and math-kernel boundaries.

#ifndef LONGSTORE_SRC_UTIL_UNITS_H_
#define LONGSTORE_SRC_UTIL_UNITS_H_

#include <cmath>
#include <compare>
#include <limits>
#include <string>

namespace longstore {

// Calendar conversions used throughout the paper's arithmetic
// (e.g. 2.8e5 hours -> 31.96 years requires 8760 hours per year).
inline constexpr double kHoursPerYear = 8760.0;
inline constexpr double kHoursPerDay = 24.0;
inline constexpr double kMinutesPerHour = 60.0;
inline constexpr double kSecondsPerHour = 3600.0;

// A span of simulated or calendar time. Internally stored in hours.
// Supports +/- and scaling; infinity models "never" (e.g. no latent-fault
// detection process at all).
class Duration {
 public:
  constexpr Duration() : hours_(0.0) {}

  static constexpr Duration Hours(double h) { return Duration(h); }
  static constexpr Duration Minutes(double m) { return Duration(m / kMinutesPerHour); }
  static constexpr Duration Seconds(double s) { return Duration(s / kSecondsPerHour); }
  static constexpr Duration Days(double d) { return Duration(d * kHoursPerDay); }
  static constexpr Duration Years(double y) { return Duration(y * kHoursPerYear); }
  static constexpr Duration Infinite() {
    return Duration(std::numeric_limits<double>::infinity());
  }
  static constexpr Duration Zero() { return Duration(0.0); }

  constexpr double hours() const { return hours_; }
  constexpr double minutes() const { return hours_ * kMinutesPerHour; }
  constexpr double seconds() const { return hours_ * kSecondsPerHour; }
  constexpr double days() const { return hours_ / kHoursPerDay; }
  constexpr double years() const { return hours_ / kHoursPerYear; }

  constexpr bool is_infinite() const { return std::isinf(hours_); }
  constexpr bool is_zero() const { return hours_ == 0.0; }
  constexpr bool is_negative() const { return hours_ < 0.0; }

  constexpr Duration operator+(Duration other) const { return Duration(hours_ + other.hours_); }
  constexpr Duration operator-(Duration other) const { return Duration(hours_ - other.hours_); }
  constexpr Duration operator*(double s) const { return Duration(hours_ * s); }
  constexpr Duration operator/(double s) const { return Duration(hours_ / s); }
  constexpr double operator/(Duration other) const { return hours_ / other.hours_; }
  Duration& operator+=(Duration other) {
    hours_ += other.hours_;
    return *this;
  }
  Duration& operator-=(Duration other) {
    hours_ -= other.hours_;
    return *this;
  }

  constexpr auto operator<=>(const Duration&) const = default;

  // Human-readable rendering with an automatically chosen unit, e.g.
  // "20.0 min", "1460 h", "32.0 y".
  std::string ToString() const;

 private:
  explicit constexpr Duration(double hours) : hours_(hours) {}

  double hours_;
};

inline constexpr Duration operator*(double s, Duration d) { return d * s; }

// An occurrence rate (events per hour). The reciprocal of a mean interval.
// Rate and Duration convert through MeanInterval()/InverseOf() so that the
// memoryless-process arithmetic in the model reads like the paper.
class Rate {
 public:
  constexpr Rate() : per_hour_(0.0) {}

  static constexpr Rate PerHour(double r) { return Rate(r); }
  static constexpr Rate PerYear(double r) { return Rate(r / kHoursPerYear); }
  static constexpr Rate Zero() { return Rate(0.0); }

  // The rate whose mean inter-event interval is `d`. An infinite duration
  // yields a zero rate ("never happens").
  static constexpr Rate InverseOf(Duration d) {
    if (d.is_infinite()) {
      return Rate(0.0);
    }
    return Rate(1.0 / d.hours());
  }

  constexpr double per_hour() const { return per_hour_; }
  constexpr double per_year() const { return per_hour_ * kHoursPerYear; }
  constexpr bool is_zero() const { return per_hour_ == 0.0; }

  // Mean time between events; infinite for a zero rate.
  constexpr Duration MeanInterval() const {
    if (per_hour_ == 0.0) {
      return Duration::Infinite();
    }
    return Duration::Hours(1.0 / per_hour_);
  }

  constexpr Rate operator+(Rate other) const { return Rate(per_hour_ + other.per_hour_); }
  constexpr Rate operator*(double s) const { return Rate(per_hour_ * s); }
  constexpr Rate operator/(double s) const { return Rate(per_hour_ / s); }

  constexpr auto operator<=>(const Rate&) const = default;

 private:
  explicit constexpr Rate(double per_hour) : per_hour_(per_hour) {}

  double per_hour_;
};

inline constexpr Rate operator*(double s, Rate r) { return r * s; }

// Probability of an event within a mission of length `t` for a memoryless
// process with mean time `mttf` (paper equation 1): P = 1 - exp(-t / MTTF).
double MissionLossProbability(Duration mttf, Duration mission);

// Clamps a computed probability into [0, 1]; the paper's linearized
// approximations (eq 2) can exceed 1 outside their validity region and the
// saturation P(V2 or L2 | L1) ~= 1 is part of the §5.4 arithmetic.
double ClampProbability(double p);

}  // namespace longstore

#endif  // LONGSTORE_SRC_UTIL_UNITS_H_
