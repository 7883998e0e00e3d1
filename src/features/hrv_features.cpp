#include "features/hrv_features.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "dsp/statistics.hpp"

namespace svt::features {

void compute_hrv_features(std::span<const double> rr_s, FeatureScratch& scratch,
                          std::span<double> f) {
  SVT_ASSERT(f.size() == kNumHrvFeatures);
  std::fill(f.begin(), f.end(), 0.0);
  if (rr_s.size() < 4) return;
  const std::span<const double> x(rr_s);

  auto& hr = scratch.hr;
  hr.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) hr[i] = 60.0 / x[i];

  // Units follow HRV-analysis convention (intervals in milliseconds, rates
  // in bpm, fractions in percent). The resulting *heterogeneous* feature
  // magnitudes are what the paper's per-feature power-of-two ranges exist
  // to handle, so they are preserved deliberately (the z-scoring scaler's
  // post gains, features::category_gains, carry them to the accelerator).
  const double mean_nn = dsp::mean(x);
  f[0] = dsp::mean(hr);                                     // [bpm]
  f[1] = mean_nn * 1e3;                                     // [ms]
  f[2] = dsp::stddev_sample(x) * 1e3;                       // SDNN [ms]

  auto& d = scratch.diffs;  // Successive differences, shared by RMSSD/pNN50.
  dsp::successive_differences_into(x, d);
  f[3] = dsp::rms(d) * 1e3;                                 // RMSSD [ms]
  f[4] = dsp::fraction_abs_above(d, 0.050) * 100.0;         // pNN50 [%]

  f[5] = mean_nn > 0.0 ? dsp::stddev_sample(x) / mean_nn * 100.0 : 0.0;  // CVNN [%]
  f[6] = dsp::stddev_sample(hr);                            // [bpm]

  auto& sorted = scratch.sorted;  // One sort serves both IQR percentiles.
  sorted.assign(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  f[7] = (dsp::percentile_sorted(sorted, 75.0) - dsp::percentile_sorted(sorted, 25.0)) * 1e3;
}

}  // namespace svt::features
