#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

namespace svt::dsp {
namespace {

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(5), 8u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
  EXPECT_THROW(next_power_of_two(0), std::invalid_argument);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> x(16, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  fft_inplace(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, DcConcentratesInBinZero) {
  std::vector<std::complex<double>> x(32, {2.0, 0.0});
  fft_inplace(x);
  EXPECT_NEAR(x[0].real(), 64.0, 1e-9);
  for (std::size_t k = 1; k < x.size(); ++k) EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
}

TEST(Fft, SingleToneLandsInCorrectBin) {
  constexpr std::size_t n = 64;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) / n);
  const auto mag2 = magnitude_squared_spectrum(x, n);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < mag2.size(); ++k) {
    if (mag2[k] > mag2[peak]) peak = k;
  }
  EXPECT_EQ(peak, 5u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> x(12);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
  std::vector<double> r(10);
  EXPECT_THROW(fft_real(r, 12), std::invalid_argument);
  EXPECT_THROW(fft_real(r, 8), std::invalid_argument);  // Smaller than input.
  std::vector<double> empty;
  EXPECT_THROW(fft_real(empty), std::invalid_argument);
}

TEST(Fft, ZeroPadsToNextPowerOfTwo) {
  std::vector<double> x(100, 1.0);
  const auto spec = fft_real(x);
  EXPECT_EQ(spec.size(), 128u);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(n);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {gauss(rng), gauss(rng)};
  auto y = x;
  fft_inplace(y);
  ifft_inplace(y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(n + 17);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<std::complex<double>> x(n);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = {gauss(rng), gauss(rng)};
    time_energy += std::norm(v);
  }
  auto y = x;
  fft_inplace(y);
  double freq_energy = 0.0;
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-9 * time_energy + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u, 256u, 1024u));

TEST(FftPlan, PlannedTransformBitIdenticalToPlanless) {
  for (const std::size_t n : {1u, 2u, 8u, 64u, 256u, 1024u}) {
    std::mt19937_64 rng(7 + n);
    std::normal_distribution<double> gauss(0.0, 1.0);
    std::vector<std::complex<double>> x(n);
    for (auto& v : x) v = {gauss(rng), gauss(rng)};

    auto want = x;
    fft_inplace(want);
    const FftPlan plan(n);
    EXPECT_EQ(plan.size(), n);
    auto got = x;
    fft_inplace(std::span(got), plan);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << "n " << n << ", bin " << i;
  }
  EXPECT_THROW(FftPlan(3), std::invalid_argument);  // Non-power-of-two.
}

TEST(Fft, LinearityProperty) {
  constexpr std::size_t n = 128;
  std::mt19937_64 rng(99);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<std::complex<double>> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {gauss(rng), 0.0};
    b[i] = {gauss(rng), 0.0};
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft_inplace(a);
  fft_inplace(b);
  fft_inplace(sum);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(sum[k] - (a[k] + 2.0 * b[k])), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace svt::dsp
