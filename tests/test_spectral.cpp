#include "dsp/spectral.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <string>

#include "dsp/window.hpp"

namespace svt::dsp {
namespace {

std::vector<double> tone(double f_hz, double fs_hz, std::size_t n, double amplitude = 1.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = amplitude * std::sin(2.0 * std::numbers::pi * f_hz * static_cast<double>(i) / fs_hz);
  return x;
}

/// A plain periodogram: Welch with one undetrended segment spanning x.
PsdEstimate periodogram(std::span<const double> x, double fs_hz) {
  WelchParams one_segment;
  one_segment.segment_length = x.size();
  one_segment.detrend_segments = false;
  return welch_psd(x, fs_hz, one_segment);
}

TEST(Window, KnownShapes) {
  const auto rect = make_window(WindowType::kRectangular, 8);
  for (double v : rect) EXPECT_DOUBLE_EQ(v, 1.0);
  const auto hann = make_window(WindowType::kHann, 9);
  EXPECT_NEAR(hann.front(), 0.0, 1e-12);
  EXPECT_NEAR(hann[4], 1.0, 1e-12);  // Symmetric peak.
  EXPECT_NEAR(hann.back(), 0.0, 1e-12);
  const auto hamming = make_window(WindowType::kHamming, 5);
  EXPECT_NEAR(hamming.front(), 0.08, 1e-12);
  EXPECT_THROW(make_window(WindowType::kHann, 0), std::invalid_argument);
}

TEST(Window, Names) {
  EXPECT_EQ(window_name(WindowType::kHann), "hann");
  EXPECT_EQ(window_name(WindowType::kBlackman), "blackman");
}

TEST(Periodogram, PeakAtToneFrequency) {
  const double fs = 8.0;
  const auto x = tone(1.0, fs, 512);
  const auto psd = periodogram(x, fs);
  const double peak = peak_frequency(psd, 0.1, 4.0);
  EXPECT_NEAR(peak, 1.0, psd.resolution_hz() * 1.5);
}

TEST(Periodogram, Validation) {
  std::vector<double> empty;
  EXPECT_THROW(periodogram(empty, 4.0), std::invalid_argument);
  std::vector<double> x(16, 1.0);
  EXPECT_THROW(periodogram(x, 0.0), std::invalid_argument);
}

TEST(Welch, TotalPowerApproximatesVariance) {
  // White noise: integrated one-sided PSD should approximate the variance.
  std::mt19937_64 rng(5);
  std::normal_distribution<double> gauss(0.0, 2.0);
  std::vector<double> x(8192);
  for (auto& v : x) v = gauss(rng);
  WelchParams params;
  params.segment_length = 256;
  const auto psd = welch_psd(x, 4.0, params);
  EXPECT_NEAR(total_power(psd), 4.0, 0.5);
}

TEST(Welch, ToneBandDominates) {
  const double fs = 4.0;
  auto x = tone(0.3, fs, 4096, 1.0);
  const auto psd = welch_psd(x, fs);
  const double in_band = band_power(psd, 0.25, 0.35);
  const double out_band = band_power(psd, 0.5, 1.5);
  EXPECT_GT(in_band, 10.0 * out_band);
}

TEST(Welch, ShortSeriesFallsBackToSinglePeriodogram) {
  const auto x = tone(0.3, 4.0, 64);
  WelchParams params;
  params.segment_length = 256;  // Longer than the series.
  const auto psd = welch_psd(x, 4.0, params);
  EXPECT_FALSE(psd.power.empty());
  EXPECT_NEAR(peak_frequency(psd, 0.1, 1.0), 0.3, 2.0 * psd.resolution_hz());
}

TEST(Welch, Validation) {
  std::vector<double> x(64, 0.0);
  WelchParams bad;
  bad.segment_length = 0;
  EXPECT_THROW(welch_psd(x, 4.0, bad), std::invalid_argument);
  WelchParams bad2;
  bad2.overlap_fraction = 1.0;
  EXPECT_THROW(welch_psd(x, 4.0, bad2), std::invalid_argument);
}

TEST(BandPower, PartitionSumsToTotal) {
  const auto x = tone(0.7, 4.0, 2048, 1.3);
  const auto psd = welch_psd(x, 4.0);
  const double total = total_power(psd);
  double partition = 0.0;
  for (double lo = 0.0; lo < 2.0; lo += 0.25) partition += band_power(psd, lo, lo + 0.25);
  // The partition covers [0,2) which includes every bin except exactly-2 Hz.
  EXPECT_NEAR(partition, total, 0.05 * total + 1e-9);
  EXPECT_THROW(band_power(psd, 1.0, 0.5), std::invalid_argument);
}

TEST(SpectralEdge, MonotoneInFraction) {
  std::mt19937_64 rng(7);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> x(4096);
  for (auto& v : x) v = gauss(rng);
  const auto psd = welch_psd(x, 4.0);
  double prev = 0.0;
  for (double f : {0.25, 0.5, 0.75, 0.95}) {
    const double edge = spectral_edge_frequency(psd, f);
    EXPECT_GE(edge, prev);
    prev = edge;
  }
  EXPECT_THROW(spectral_edge_frequency(psd, 0.0), std::invalid_argument);
  EXPECT_THROW(spectral_edge_frequency(psd, 1.5), std::invalid_argument);
}

/// band_power as a scan of every bin: the reference the binary-searched
/// run must reproduce term for term.
double full_scan_band_power(const PsdEstimate& psd, double f_lo, double f_hi) {
  const double df = psd.resolution_hz();
  if (df <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t k = 0; k < psd.frequency_hz.size(); ++k) {
    const double f = psd.frequency_hz[k];
    if (f >= f_lo && f < f_hi) acc += psd.power[k] * df;
  }
  return acc;
}

/// peak_frequency as a scan of every bin.
double full_scan_peak_frequency(const PsdEstimate& psd, double f_lo, double f_hi) {
  double best_f = f_lo;
  double best_p = -1.0;
  for (std::size_t k = 0; k < psd.frequency_hz.size(); ++k) {
    const double f = psd.frequency_hz[k];
    if (f >= f_lo && f < f_hi && psd.power[k] > best_p) {
      best_p = psd.power[k];
      best_f = f;
    }
  }
  return best_f;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// band_power and peak_frequency visit only the band's run of bins; over
// every FFT size from 2 to 512 points they must return the bits of a full
// scan for band edges on bins, between bins, one ulp either side of a bin,
// below 0 Hz, past Nyquist, infinite or NaN, and for empty and inverted
// bands. The powers repeat values, so the first-maximum rule of
// peak_frequency is exercised too.
TEST(BandPower, BinRunBitIdenticalToFullScan) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::mt19937_64 rng(17);
  std::size_t checked = 0;
  for (const double fs : {4.0, 3.0, 250.0}) {
    for (std::size_t nfft = 2; nfft <= 512 && !HasFailure(); nfft *= 2) {
      // A producer's estimate: frequency df * k, power with ties.
      const double df = fs / static_cast<double>(nfft);
      PsdEstimate psd;
      std::uniform_int_distribution<int> level(0, 7);
      for (std::size_t k = 0; k <= nfft / 2; ++k) {
        psd.frequency_hz.push_back(df * static_cast<double>(k));
        psd.power.push_back(std::ldexp(1.0 + level(rng), -level(rng)));
      }
      std::vector<double> edges{kNan, kInf, -kInf, -1.0, -0.0, 0.0, fs / 2.0 + df, 2.0 * fs};
      for (const double f : psd.frequency_hz)
        for (const double e : {f, f + df / 2.0, f - df / 2.0, std::nextafter(f, kInf),
                               std::nextafter(f, -kInf)})
          edges.push_back(e);
      // Large sizes: a random sample of the edges keeps the pairs few.
      if (edges.size() > 80) {
        std::shuffle(edges.begin() + 8, edges.end(), rng);
        edges.resize(80);
      }
      for (const double lo : edges) {
        for (const double hi : edges) {
          const auto what = [&] {
            return "fs=" + std::to_string(fs) + " nfft=" + std::to_string(nfft) + " band [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + ")";
          };
          if (hi < lo) {
            EXPECT_THROW(band_power(psd, lo, hi), std::invalid_argument) << what();
          } else {
            EXPECT_EQ(bits(band_power(psd, lo, hi)), bits(full_scan_band_power(psd, lo, hi)))
                << what();
          }
          EXPECT_EQ(bits(peak_frequency(psd, lo, hi)), bits(full_scan_peak_frequency(psd, lo, hi)))
              << what();
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 30000u);
}

class WindowPowerProperty : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowPowerProperty, PowerPositiveAndBounded) {
  const auto w = make_window(GetParam(), 128);
  const double p = window_power(w);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 128.0 + 1e-12);  // Rectangular is the maximum-power window.
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowPowerProperty,
                         ::testing::Values(WindowType::kRectangular, WindowType::kHann,
                                           WindowType::kHamming, WindowType::kBlackman));

// Amplitude-scaling property: PSD scales quadratically with amplitude.
class PsdScaling : public ::testing::TestWithParam<double> {};

TEST_P(PsdScaling, QuadraticInAmplitude) {
  const double a = GetParam();
  const auto x1 = tone(0.3, 4.0, 2048, 1.0);
  const auto xa = tone(0.3, 4.0, 2048, a);
  const double p1 = band_power(welch_psd(x1, 4.0), 0.25, 0.35);
  const double pa = band_power(welch_psd(xa, 4.0), 0.25, 0.35);
  EXPECT_NEAR(pa / p1, a * a, 0.02 * a * a);
}

INSTANTIATE_TEST_SUITE_P(Amplitudes, PsdScaling, ::testing::Values(0.5, 2.0, 3.0, 10.0));

}  // namespace
}  // namespace svt::dsp
