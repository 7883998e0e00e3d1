#include "features/psd_features.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "dsp/spectral.hpp"
#include "dsp/statistics.hpp"

namespace svt::features {

void compute_psd_features(std::span<const double> edr_values, double edr_fs_hz,
                          FeatureScratch& scratch, std::span<double> f) {
  SVT_ASSERT(f.size() == kNumPsdFeatures);
  std::fill(f.begin(), f.end(), 0.0);
  if (edr_values.size() < 32 || edr_fs_hz <= 0.0) return;
  if (dsp::stddev_population(edr_values) <= 0.0) return;

  dsp::WelchParams wp;
  wp.segment_length = 256;
  wp.overlap_fraction = 0.5;
  dsp::welch_psd(edr_values, edr_fs_hz, wp, scratch.spectral, scratch.psd);
  summarize_psd(scratch.psd, edr_fs_hz, f);
}

void summarize_psd(const dsp::PsdEstimate& psd, double edr_fs_hz, std::span<double> f) {
  SVT_ASSERT(f.size() == kNumPsdFeatures);
  constexpr double kEps = 1e-12;
  const double nyquist = edr_fs_hz / 2.0;
  const double band_width = nyquist / static_cast<double>(kNumPsdBands);
  for (std::size_t b = 0; b < kNumPsdBands; ++b) {
    const double lo = band_width * static_cast<double>(b);
    const double hi = lo + band_width;
    f[b] = std::log10(dsp::band_power(psd, lo, hi) + kEps);
  }
  f[25] = std::log10(dsp::total_power(psd) + kEps);
  const double low = dsp::band_power(psd, 0.10, 0.25);
  const double high = dsp::band_power(psd, 0.25, 0.50);
  f[26] = std::log10((low + kEps) / (high + kEps));
  f[27] = dsp::peak_frequency(psd, 0.05, 0.60);
  f[28] = dsp::spectral_edge_frequency(psd, 0.95);
}

}  // namespace svt::features
