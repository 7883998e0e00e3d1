#include "dsp/ar_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>

#include "support/burg_oracle.hpp"

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

/// The library's Burg fit of one series: it runs in both lanes.
ArModel burg(std::span<const double> x, std::size_t order) {
  BurgScratch scratch;
  ar_burg(x, x, order, scratch);
  return scratch.model[0];
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
  const auto model = burg(x, 2);
  EXPECT_NEAR(model.coefficients[0], truth[0], 0.1);
  EXPECT_NEAR(model.coefficients[1], truth[1], 0.1);
}

TEST(Burg, ConstantSeriesGivesZeroModel) {
  std::vector<double> x(64, 5.0);
  const auto model = burg(x, 4);
  for (double c : model.coefficients) EXPECT_DOUBLE_EQ(c, 0.0);
  EXPECT_DOUBLE_EQ(model.noise_variance, 0.0);
}

TEST(Burg, Validation) {
  std::vector<double> x(8, 1.0);
  std::vector<double> longer(9, 1.0);
  BurgScratch scratch;
  EXPECT_THROW(ar_burg(x, x, 0, scratch), std::invalid_argument);
  EXPECT_THROW(ar_burg(x, x, 8, scratch), std::invalid_argument);
  EXPECT_THROW(ar_burg(x, longer, 2, scratch), std::invalid_argument);
  EXPECT_THROW(ar_burg_scalar(x, 0), std::invalid_argument);
  EXPECT_THROW(ar_burg_scalar(x, 8), std::invalid_argument);
}

/// Every bit of a lane's model against the scalar recursion on its series.
void expect_lane_matches_scalar(const ArModel& lane, std::span<const double> x, std::size_t order,
                                const std::string& what) {
  const ArModel want = ar_burg_scalar(x, order);
  ASSERT_EQ(lane.coefficients.size(), order) << what;
  for (std::size_t j = 0; j < order; ++j)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lane.coefficients[j]),
              std::bit_cast<std::uint64_t>(want.coefficients[j]))
        << what << " a" << j + 1 << ": " << lane.coefficients[j] << " vs " << want.coefficients[j];
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lane.noise_variance),
            std::bit_cast<std::uint64_t>(want.noise_variance))
      << what << " noise variance";
}

/// A random test series of length n: an AR process, white noise or a slow
/// oscillation, at a random scale and offset (so mean removal matters).
std::vector<double> random_series(std::mt19937_64& rng, std::size_t n) {
  std::uniform_int_distribution<int> kind(0, 2);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const double scale = std::ldexp(1.0, static_cast<int>(std::lround(unit(rng) * 20.0)));
  const double offset = unit(rng) * 1e3;
  std::vector<double> x;
  switch (kind(rng)) {
    case 0:
      x = ar_process({0.9 * unit(rng), 0.5 * unit(rng), 0.2 * unit(rng)}, 1.0, n,
                     static_cast<unsigned>(rng()));
      break;
    case 1:
      x.resize(n);
      for (double& v : x) v = unit(rng);
      break;
    default: {
      x.resize(n);
      const double w = 0.05 + 0.4 * (unit(rng) + 1.0);
      for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(w * static_cast<double>(i));
    }
  }
  for (double& v : x) v = v * scale + offset;
  return x;
}

// Each lane of the two-lane fit is bit-identical to the scalar recursion
// on its own series: paired with another series, paired with a constant
// (flat) one, and alone in both lanes, over every length from 11 to 1000
// and every order the paper's AR(9) and below.
TEST(Burg, LanesBitIdenticalToScalarRecursion) {
  std::mt19937_64 rng(2024);
  BurgScratch scratch;
  std::size_t cases = 0;
  for (std::size_t n = 11; n <= 1000 && !::testing::Test::HasFailure(); ++n) {
    std::vector<std::size_t> orders{1 + n % 9};
    if (n == 11 || n == 720 || n == 1000) orders = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (const std::size_t order : orders) {
      const auto x0 = random_series(rng, n);
      const auto x1 = random_series(rng, n);
      const std::string what = "n=" + std::to_string(n) + " order=" + std::to_string(order);
      ar_burg(x0, x1, order, scratch);
      expect_lane_matches_scalar(scratch.model[0], x0, order, what + " lane 0");
      expect_lane_matches_scalar(scratch.model[1], x1, order, what + " lane 1");
      // A flat lane beside a live one, in either slot: the flat lane gets
      // the all-zero model, the live one is unaffected.
      const std::vector<double> flat(n, x0[0]);
      ar_burg(flat, x1, order, scratch);
      expect_lane_matches_scalar(scratch.model[0], flat, order, what + " flat lane 0");
      expect_lane_matches_scalar(scratch.model[1], x1, order, what + " live lane 1");
      ar_burg(x0, flat, order, scratch);
      expect_lane_matches_scalar(scratch.model[0], x0, order, what + " live lane 0");
      expect_lane_matches_scalar(scratch.model[1], flat, order, what + " flat lane 1");
      // A lone series mirrored into both lanes.
      ar_burg(x1, x1, order, scratch);
      expect_lane_matches_scalar(scratch.model[0], x1, order, what + " lone lane 0");
      expect_lane_matches_scalar(scratch.model[1], x1, order, what + " lone lane 1");
      ++cases;
    }
  }
  EXPECT_EQ(cases, 990u + 3 * 8);
}

TEST(ArModel, SpectrumPeaksAtResonance) {
  // AR(2) resonator near normalized frequency 0.1 (of fs).
  const double f0 = 0.1, fs = 4.0;
  const double r = 0.95;
  const double theta = 2.0 * std::numbers::pi * f0;
  const std::vector<double> truth{2.0 * r * std::cos(theta), -r * r};
  const auto x = ar_process(truth, 1.0, 8192, 5);
  const auto model = burg(x, 2);

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
  const auto fit = burg(x, 3);
  const auto yw = ar_yule_walker(x, 3);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_NEAR(fit.coefficients[k], yw.coefficients[k], 0.05);
  EXPECT_GE(fit.noise_variance, 0.0);
  EXPECT_GE(yw.noise_variance, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArAgreement, ::testing::Values(11u, 12u, 13u));

}  // namespace
}  // namespace svt::dsp
