// Summary statistics and interval estimates for Monte Carlo output.

#ifndef LONGSTORE_SRC_UTIL_STATS_H_
#define LONGSTORE_SRC_UTIL_STATS_H_

#include <cstdint>

namespace longstore {

// Numerically stable running mean/variance (Welford). Merges support the
// multi-threaded Monte Carlo executor: per-thread accumulators combine into
// one without keeping raw samples.
class RunningStats {
 public:
  // The accumulator's exact internal state, for serializing partial
  // aggregates across processes (the sweep shard protocol). A FromRaw of an
  // unmodified raw() is bit-identical to the original — further Add/Merge
  // calls continue exactly where the source accumulator left off.
  struct Raw {
    int64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void Add(double x);
  void Merge(const RunningStats& other);

  Raw raw() const { return Raw{count_, mean_, m2_, min_, max_}; }
  static RunningStats FromRaw(const Raw& raw);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n - 1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  // Standard error of the mean.
  double std_error() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// A two-sided confidence interval.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double x) const { return lo <= x && x <= hi; }
  double width() const { return hi - lo; }
};

// Normal-approximation CI for a mean at the given confidence (e.g. 0.95).
Interval MeanConfidenceInterval(const RunningStats& stats, double confidence);

// Wilson score interval for a binomial proportion: `successes` out of
// `trials`. Well-behaved for proportions near 0 or 1, which is exactly the
// regime of small loss probabilities (e.g. the paper's 0.8% in 50 years).
Interval WilsonInterval(int64_t successes, int64_t trials, double confidence);

// Two-sided standard-normal quantile for the given confidence, e.g.
// confidence = 0.95 -> 1.959964.
double NormalQuantileTwoSided(double confidence);

// Inverse standard normal CDF (Acklam's rational approximation, |eps| < 1e-9).
double InverseNormalCdf(double p);

}  // namespace longstore

#endif  // LONGSTORE_SRC_UTIL_STATS_H_
