#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace longstore {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

RunningStats RunningStats::FromRaw(const Raw& raw) {
  RunningStats stats;
  stats.count_ = raw.count;
  stats.mean_ = raw.mean;
  stats.m2_ = raw.m2;
  stats.min_ = raw.min;
  stats.max_ = raw.max;
  return stats;
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::std_error() const {
  if (count_ < 1) {
    return 0.0;
  }
  return stddev() / std::sqrt(static_cast<double>(count_));
}

Interval MeanConfidenceInterval(const RunningStats& stats, double confidence) {
  const double z = NormalQuantileTwoSided(confidence);
  const double half = z * stats.std_error();
  return Interval{stats.mean() - half, stats.mean() + half};
}

Interval WilsonInterval(int64_t successes, int64_t trials, double confidence) {
  if (trials <= 0) {
    return Interval{0.0, 1.0};
  }
  const double z = NormalQuantileTwoSided(confidence);
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half = (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return Interval{std::max(0.0, center - half), std::min(1.0, center + half)};
}

double NormalQuantileTwoSided(double confidence) {
  if (confidence <= 0.0 || confidence >= 1.0) {
    throw std::invalid_argument("confidence must lie in (0, 1)");
  }
  return InverseNormalCdf(0.5 + confidence / 2.0);
}

double InverseNormalCdf(double p) {
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument("p must lie in (0, 1)");
  }
  // Acklam's algorithm: rational approximations on a central region and two
  // tails, one Halley refinement step for ~1e-15 relative accuracy.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;

  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // One step of Halley's method against the true CDF.
  const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

}  // namespace longstore
