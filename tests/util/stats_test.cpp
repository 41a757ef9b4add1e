#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace fatih::util {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(5);
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(1.0, 3.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1U);
  b.merge(a);
  EXPECT_EQ(b.count(), 1U);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(NormalCdf, StandardValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.0), 0.1586553, 1e-6);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021, 1e-6);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501, 1e-6);
}

TEST(NormalCdf, Parameterized) {
  EXPECT_NEAR(normal_cdf(15.0, 10.0, 5.0), normal_cdf(1.0), 1e-12);
  EXPECT_NEAR(normal_cdf(10.0, 10.0, 2.0), 0.5, 1e-12);
}

TEST(ZScore, MatchesDefinition) {
  // mean 12, mu0 10, sigma 4, n 16 -> z = (12-10)/(4/4) = 2.
  EXPECT_NEAR(z_score(12.0, 10.0, 4.0, 16), 2.0, 1e-12);
}

TEST(Percentile, MedianOddEven) {
  EXPECT_DOUBLE_EQ(*median({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(*median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Percentile, Extremes) {
  std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(*percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(*percentile(xs, 100.0), 5.0);
}

TEST(Percentile, EmptyIsNull) { EXPECT_FALSE(percentile({}, 50.0).has_value()); }

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 9
  h.add(-1.0);  // underflow -> bin 0
  h.add(42.0);  // overflow -> bin 9
  EXPECT_EQ(h.total(), 4U);
  EXPECT_EQ(h.bin_count(0), 2U);
  EXPECT_EQ(h.bin_count(9), 2U);
  EXPECT_EQ(h.underflow(), 1U);
  EXPECT_EQ(h.overflow(), 1U);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  // Ranks at 0/25/50/75/100 for 5 sorted points; p=60 lands 0.4 of the
  // way between the 2nd and 3rd element (linear interpolation).
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(*percentile(xs, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(*percentile(xs, 60.0), 34.0);
  EXPECT_DOUBLE_EQ(*percentile(xs, 90.0), 46.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(*percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(*percentile({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(*percentile({7.0}, 100.0), 7.0);
}

TEST(Histogram, BinEdgesAreHalfOpen) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.0);  // lo is inclusive -> bin 0
  h.add(1.0);  // exact edge -> bin 1
  h.add(4.0);  // hi is exclusive -> overflow, clamped to last bin
  EXPECT_EQ(h.bin_count(0), 1U);
  EXPECT_EQ(h.bin_count(1), 1U);
  EXPECT_EQ(h.bin_count(3), 1U);
  EXPECT_EQ(h.overflow(), 1U);
  EXPECT_EQ(h.underflow(), 0U);
  EXPECT_EQ(h.total(), 3U);
}

TEST(Histogram, SingleBinSwallowsEverything) {
  Histogram h(-1.0, 1.0, 1);
  h.add(-5.0);
  h.add(0.0);
  h.add(5.0);
  EXPECT_EQ(h.bins(), 1U);
  EXPECT_EQ(h.bin_count(0), 3U);
  EXPECT_EQ(h.underflow(), 1U);
  EXPECT_EQ(h.overflow(), 1U);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.0);
}

TEST(NormalFit, GaussianSampleFitsWell) {
  Rng rng(77);
  Histogram h(-4.0, 4.0, 40);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.normal(0.0, 1.0);
    h.add(x);
    s.add(x);
  }
  const double reduced = normal_fit_reduced_chi2(h, s.mean(), s.stddev());
  EXPECT_LT(reduced, 2.0);  // good fit
}

TEST(NormalFit, UniformSampleFitsBadly) {
  Rng rng(78);
  Histogram h(-4.0, 4.0, 40);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.uniform(-3.0, 3.0);
    h.add(x);
    s.add(x);
  }
  const double reduced = normal_fit_reduced_chi2(h, s.mean(), s.stddev());
  EXPECT_GT(reduced, 10.0);  // visibly non-normal
}

}  // namespace
}  // namespace fatih::util
