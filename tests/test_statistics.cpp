#include "dsp/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

namespace svt::dsp {
namespace {

TEST(Statistics, MeanOfKnownValues) {
  std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
}

TEST(Statistics, MeanThrowsOnEmpty) {
  std::vector<double> x;
  EXPECT_THROW(mean(x), std::invalid_argument);
}

TEST(Statistics, VariancePopulationVsSample) {
  std::vector<double> x{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance_population(x), 4.0);
  EXPECT_NEAR(variance_sample(x), 4.0 * 8.0 / 7.0, 1e-12);
}

TEST(Statistics, VarianceSampleNeedsTwo) {
  std::vector<double> x{1.0};
  EXPECT_THROW(variance_sample(x), std::invalid_argument);
}

TEST(Statistics, StddevIsSqrtOfVariance) {
  std::vector<double> x{1.0, 3.0, 5.0, 7.0};
  EXPECT_DOUBLE_EQ(stddev_population(x) * stddev_population(x), variance_population(x));
}

TEST(Statistics, RmsOfConstantIsMagnitude) {
  std::vector<double> x{-3.0, -3.0, -3.0};
  EXPECT_DOUBLE_EQ(rms(x), 3.0);
}

TEST(Statistics, MinMax) {
  std::vector<double> x{3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(min_value(x), -1.0);
  EXPECT_DOUBLE_EQ(max_value(x), 7.0);
}

TEST(Statistics, MedianOddEven) {
  std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Statistics, PercentileBoundsAndInterpolation) {
  std::vector<double> x{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(x, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(x, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(x, 50.0), 25.0);
  EXPECT_THROW(percentile(x, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(x, 101.0), std::invalid_argument);
}

TEST(Statistics, CovarianceMatchesManual) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{2.0, 4.0, 6.0};
  EXPECT_NEAR(covariance_population(x, y), 2.0 * variance_population(x), 1e-12);
  std::vector<double> bad{1.0};
  EXPECT_THROW(covariance_population(x, bad), std::invalid_argument);
}

TEST(Statistics, PearsonPerfectCorrelation) {
  std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  std::vector<double> y{3.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> z{9.0, 7.0, 5.0, 3.0};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Statistics, PearsonOfConstantIsZero) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> c{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);
}

TEST(Statistics, SuccessiveDifferences) {
  std::vector<double> x{1.0, 4.0, 2.0};
  std::vector<double> d(5, 9.0);  // Resized, not appended to.
  successive_differences_into(x, d);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], -2.0);
  std::vector<double> one{1.0};
  EXPECT_THROW(successive_differences_into(one, d), std::invalid_argument);
}

TEST(Statistics, FractionAboveThreshold) {
  std::vector<double> x{0.0, 0.1, 0.0, 0.5, 0.0};
  std::vector<double> d;
  successive_differences_into(x, d);
  EXPECT_DOUBLE_EQ(fraction_abs_above(d, 0.3), 0.5);
  EXPECT_DOUBLE_EQ(fraction_abs_above(d, 10.0), 0.0);
}

TEST(Statistics, AutocorrelationLagZeroIsPower) {
  std::vector<double> x{1.0, -1.0, 1.0, -1.0};
  const auto r = autocorrelation(x, 1);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_LT(r[1], 0.0);  // Alternating series anti-correlates at lag 1.
  EXPECT_THROW(autocorrelation(x, 4), std::invalid_argument);
}

TEST(Statistics, RemoveMeanCentres) {
  std::vector<double> x{1.0, 2.0, 3.0};
  remove_mean(x);
  EXPECT_NEAR(mean(x), 0.0, 1e-12);
}

// Property sweep: Pearson is bounded and symmetric for random series.
class PearsonProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(PearsonProperty, BoundedAndSymmetric) {
  std::mt19937_64 rng(GetParam());
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> x(64), y(64);
  for (std::size_t i = 0; i < 64; ++i) {
    x[i] = gauss(rng);
    y[i] = gauss(rng);
  }
  const double rxy = pearson(x, y);
  EXPECT_GE(rxy, -1.0 - 1e-12);
  EXPECT_LE(rxy, 1.0 + 1e-12);
  EXPECT_NEAR(rxy, pearson(y, x), 1e-12);
  EXPECT_NEAR(pearson(x, x), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PearsonProperty, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Property sweep: percentile is monotone in p.
class PercentileProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(PercentileProperty, MonotoneInP) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> uni(-10.0, 10.0);
  std::vector<double> x(41);
  for (auto& v : x) v = uni(rng);
  double prev = percentile(x, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = percentile(x, p);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty, ::testing::Values(10u, 11u, 12u, 13u));

}  // namespace
}  // namespace svt::dsp
