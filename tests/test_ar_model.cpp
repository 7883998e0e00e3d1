#include "dsp/ar_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace svt::dsp {
namespace {

/// Synthesize an AR process x[n] = sum a_k x[n-k] + e[n].
std::vector<double> ar_process(const std::vector<double>& a, double noise_sigma, std::size_t n,
                               unsigned seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, noise_sigma);
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double v = gauss(rng);
    for (std::size_t k = 0; k < a.size() && k < i; ++k) v += a[k] * x[i - 1 - k];
    x[i] = v;
  }
  return x;
}

TEST(LevinsonDurbin, RecoversAr1FromExactAutocorrelation) {
  // AR(1) with a = 0.8, unit noise: r[k] = a^k / (1 - a^2).
  const double a = 0.8;
  std::vector<double> r(3);
  for (std::size_t k = 0; k < r.size(); ++k)
    r[k] = std::pow(a, static_cast<double>(k)) / (1.0 - a * a);
  const auto model = levinson_durbin(r, 1);
  ASSERT_EQ(model.order(), 1u);
  EXPECT_NEAR(model.coefficients[0], a, 1e-12);
  EXPECT_NEAR(model.noise_variance, 1.0, 1e-12);
}

TEST(LevinsonDurbin, Validation) {
  std::vector<double> r{1.0, 0.5};
  EXPECT_THROW(levinson_durbin(r, 0), std::invalid_argument);
  EXPECT_THROW(levinson_durbin(r, 2), std::invalid_argument);
  std::vector<double> bad{0.0, 0.5};
  EXPECT_THROW(levinson_durbin(bad, 1), std::invalid_argument);
}

TEST(YuleWalker, EstimatesAr2Coefficients) {
  const std::vector<double> truth{1.2, -0.5};
  const auto x = ar_process(truth, 1.0, 20000, 3);
  const auto model = ar_yule_walker(x, 2);
  EXPECT_NEAR(model.coefficients[0], truth[0], 0.05);
  EXPECT_NEAR(model.coefficients[1], truth[1], 0.05);
  EXPECT_NEAR(model.noise_variance, 1.0, 0.1);
}

TEST(Burg, EstimatesAr2CoefficientsOnShortSeries) {
  const std::vector<double> truth{1.2, -0.5};
  const auto x = ar_process(truth, 1.0, 512, 4);
  const auto model = ar_burg(x, 2);
  EXPECT_NEAR(model.coefficients[0], truth[0], 0.1);
  EXPECT_NEAR(model.coefficients[1], truth[1], 0.1);
}

TEST(Burg, ConstantSeriesGivesZeroModel) {
  std::vector<double> x(64, 5.0);
  const auto model = ar_burg(x, 4);
  for (double c : model.coefficients) EXPECT_DOUBLE_EQ(c, 0.0);
  EXPECT_DOUBLE_EQ(model.noise_variance, 0.0);
}

TEST(Burg, Validation) {
  std::vector<double> x(8, 1.0);
  EXPECT_THROW(ar_burg(x, 0), std::invalid_argument);
  EXPECT_THROW(ar_burg(x, 8), std::invalid_argument);
}

TEST(ArModel, SpectrumPeaksAtResonance) {
  // AR(2) resonator near normalized frequency 0.1 (of fs).
  const double f0 = 0.1, fs = 4.0;
  const double r = 0.95;
  const double theta = 2.0 * std::numbers::pi * f0;
  const std::vector<double> truth{2.0 * r * std::cos(theta), -r * r};
  const auto x = ar_process(truth, 1.0, 8192, 5);
  const auto model = ar_burg(x, 2);

  std::vector<double> freqs;
  for (double f = 0.05; f <= 2.0; f += 0.01) freqs.push_back(f);
  const auto psd = model.spectrum(freqs, fs);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < psd.size(); ++i) {
    if (psd[i] > psd[peak]) peak = i;
  }
  EXPECT_NEAR(freqs[peak], f0 * fs, 0.05);
}

// Property: Burg and Yule-Walker agree on long series, and the estimated
// noise variance is non-negative and no larger than the signal variance.
class ArAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(ArAgreement, BurgAndYuleWalkerAgree) {
  const std::vector<double> truth{0.9, -0.3, 0.1};
  const auto x = ar_process(truth, 1.0, 30000, GetParam());
  const auto burg = ar_burg(x, 3);
  const auto yw = ar_yule_walker(x, 3);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_NEAR(burg.coefficients[k], yw.coefficients[k], 0.05);
  EXPECT_GE(burg.noise_variance, 0.0);
  EXPECT_GE(yw.noise_variance, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArAgreement, ::testing::Values(11u, 12u, 13u));

}  // namespace
}  // namespace svt::dsp
