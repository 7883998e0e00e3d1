// The band-pass biquads the lane detector takes its coefficients from, and
// the batch Pan-Tompkins stages of the test oracle (support/batch_qrs.hpp).
#include "dsp/filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/statistics.hpp"
#include "support/batch_qrs.hpp"
#include "support/biquad_filter.hpp"

namespace svt::dsp {
namespace {

std::vector<double> tone(double f_hz, double fs_hz, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(2.0 * std::numbers::pi * f_hz * static_cast<double>(i) / fs_hz);
  return x;
}

double steady_state_rms(const std::vector<double>& x) {
  const std::size_t skip = x.size() / 2;
  return rms(std::span<const double>(x.data() + skip, x.size() - skip));
}

TEST(Biquad, LowpassPassesLowRejectsHigh) {
  auto lp = butterworth_lowpass(10.0, 250.0);
  auto low = filter(lp, tone(2.0, 250.0, 2000));
  auto high = filter(lp, tone(60.0, 250.0, 2000));
  EXPECT_GT(steady_state_rms(low), 0.6);
  EXPECT_LT(steady_state_rms(high), 0.1);
}

TEST(Biquad, HighpassRejectsDc) {
  auto hp = butterworth_highpass(5.0, 250.0);
  std::vector<double> dc(2000, 1.0);
  auto out = filter(hp, dc);
  EXPECT_LT(std::abs(out.back()), 1e-3);
  auto fast = filter(hp, tone(50.0, 250.0, 2000));
  EXPECT_GT(steady_state_rms(fast), 0.6);
}

TEST(Biquad, CutoffValidation) {
  EXPECT_THROW(butterworth_lowpass(0.0, 250.0), std::invalid_argument);
  EXPECT_THROW(butterworth_lowpass(130.0, 250.0), std::invalid_argument);
  EXPECT_THROW(butterworth_highpass(5.0, 0.0), std::invalid_argument);
}

TEST(Biquad, ResetClearsState) {
  BiquadFilter lp(butterworth_lowpass(10.0, 250.0));
  lp.process(100.0);
  lp.reset();
  // After reset, a zero input must produce exactly zero output.
  EXPECT_DOUBLE_EQ(lp.process(0.0), 0.0);
}

TEST(Bandpass, SelectsMidBand) {
  const double fs = 250.0;
  auto in_band = bandpass_filter(tone(10.0, fs, 3000), 5.0, 15.0, fs);
  auto below = bandpass_filter(tone(0.5, fs, 3000), 5.0, 15.0, fs);
  auto above = bandpass_filter(tone(70.0, fs, 3000), 5.0, 15.0, fs);
  EXPECT_GT(steady_state_rms(in_band), 0.4);
  EXPECT_LT(steady_state_rms(below), 0.1);
  EXPECT_LT(steady_state_rms(above), 0.1);
  std::vector<double> x(16, 0.0);
  EXPECT_THROW(bandpass_filter(x, 15.0, 5.0, fs), std::invalid_argument);
}

TEST(FivePointDerivative, RampHasConstantSlope) {
  const double fs = 100.0;
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 2.0 * static_cast<double>(i) / fs;
  const auto d = five_point_derivative(x, fs);
  // Steady-state: the PT derivative kernel (2+1-(-1)-(-2))/8 = 10/8 has a
  // slope gain of 1.25, so a slope-2 ramp differentiates to 2.5.
  for (std::size_t i = 8; i + 4 < d.size(); ++i) EXPECT_NEAR(d[i], 2.5, 0.05);
  EXPECT_THROW(five_point_derivative(x, 0.0), std::invalid_argument);
}

TEST(MovingWindowIntegrate, ConstantInput) {
  std::vector<double> x(10, 4.0);
  const auto y = moving_window_integrate(x, 4);
  EXPECT_DOUBLE_EQ(y.back(), 4.0);
  EXPECT_DOUBLE_EQ(y.front(), 4.0);  // Shrunken leading window still averages 4.
  EXPECT_THROW(moving_window_integrate(x, 0), std::invalid_argument);
}

class LowpassAttenuation : public ::testing::TestWithParam<double> {};

TEST_P(LowpassAttenuation, MonotoneBeyondCutoff) {
  // Attenuation increases with frequency above the cutoff.
  const double fs = 250.0;
  auto lp = butterworth_lowpass(10.0, fs);
  const double f = GetParam();
  auto at_f = filter(lp, tone(f, fs, 4000));
  auto at_2f = filter(butterworth_lowpass(10.0, fs), tone(2.0 * f, fs, 4000));
  EXPECT_GT(steady_state_rms(at_f), steady_state_rms(at_2f));
}

INSTANTIATE_TEST_SUITE_P(Frequencies, LowpassAttenuation,
                         ::testing::Values(15.0, 20.0, 30.0, 50.0));

}  // namespace
}  // namespace svt::dsp
