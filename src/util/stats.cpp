#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fatih::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double normal_cdf(double z) { return 0.5 * (1.0 + std::erf(z / std::sqrt(2.0))); }

double normal_cdf(double x, double mean, double stddev) {
  assert(stddev > 0.0);
  return normal_cdf((x - mean) / stddev);
}

double z_score(double sample_mean, double mu0, double sigma, std::size_t n) {
  assert(sigma > 0.0 && n > 0);
  return (sample_mean - mu0) / (sigma / std::sqrt(static_cast<double>(n)));
}

std::optional<double> percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

std::optional<double> median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(lo < hi && bins >= 1);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    ++counts_.front();
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    ++counts_.back();
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::size_t>((x - lo_) / width);
  idx = std::min(idx, counts_.size() - 1);
  ++counts_[idx];
}

double Histogram::bin_center(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * width;
}

double normal_fit_reduced_chi2(const Histogram& h, double mean, double stddev) {
  assert(stddev > 0.0);
  const auto total = static_cast<double>(h.total());
  if (total == 0.0) return 0.0;
  const std::size_t n = h.bins();
  // Bin edges from centers: center +/- half width.
  const double width = (h.bin_center(1) - h.bin_center(0));
  double chi2 = 0.0;
  std::size_t dof = 0;
  double pooled_obs = 0.0;
  double pooled_exp = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double left = h.bin_center(i) - width / 2;
    const double right = h.bin_center(i) + width / 2;
    const double expected =
        total * (normal_cdf(right, mean, stddev) - normal_cdf(left, mean, stddev));
    pooled_obs += static_cast<double>(h.bin_count(i));
    pooled_exp += expected;
    if (pooled_exp >= 5.0) {  // pool small-expectation bins
      const double d = pooled_obs - pooled_exp;
      chi2 += d * d / pooled_exp;
      ++dof;
      pooled_obs = 0.0;
      pooled_exp = 0.0;
    }
  }
  if (pooled_exp > 0.0) {
    const double d = pooled_obs - pooled_exp;
    chi2 += d * d / pooled_exp;
    ++dof;
  }
  // Two parameters were estimated from the data.
  const std::size_t adjusted = dof > 3 ? dof - 3 : 1;
  return chi2 / static_cast<double>(adjusted);
}

}  // namespace fatih::util
