// Statistical primitives used by the detection protocols and the benches.
//
// Protocol chi (dissertation ch. 6) attributes packet losses to malice with
// a confidence value computed from the normal CDF of the queue-prediction
// error, and a combined Z-test over a round's losses. Those computations
// live here, together with generic accumulators used for reporting.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace fatih::util {

/// Welford online accumulator for mean / variance / extrema.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Standard normal cumulative distribution function Phi(z).
[[nodiscard]] double normal_cdf(double z);

/// Phi((x - mean) / stddev); stddev must be > 0.
[[nodiscard]] double normal_cdf(double x, double mean, double stddev);

/// One-sided Z-test score for "sample mean exceeds mu0":
///   z = (sample_mean - mu0) / (sigma / sqrt(n)).
[[nodiscard]] double z_score(double sample_mean, double mu0, double sigma, std::size_t n);

/// p-th percentile (0..100) by linear interpolation. Sorts a copy.
/// Returns nullopt for an empty sample.
[[nodiscard]] std::optional<double> percentile(std::vector<double> xs, double p);

/// Median convenience wrapper over percentile(xs, 50).
[[nodiscard]] std::optional<double> median(std::vector<double> xs);

/// Fixed-width histogram over [lo, hi) used for the queue-error
/// distribution plots (Fig. 6.3 reproduction).
class Histogram {
 public:
  /// Requires lo < hi and bins >= 1. Out-of-range samples clamp into the
  /// first/last bin and are counted separately.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t bin_count(std::size_t i) const { return counts_[i]; }
  /// Center of bin i.
  [[nodiscard]] double bin_center(std::size_t i) const;
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

/// Chi-squared goodness-of-fit statistic of a histogram against a normal
/// distribution with the given parameters. Used by tests to check that the
/// queue prediction error is approximately normal (dissertation §6.2.1).
/// Returns the reduced statistic (chi^2 / degrees-of-freedom); values near
/// 1 indicate a good fit. Bins with expected count < 5 are pooled.
[[nodiscard]] double normal_fit_reduced_chi2(const Histogram& h, double mean, double stddev);

}  // namespace fatih::util
