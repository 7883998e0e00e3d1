#include "features/hrv_features.hpp"

#include <algorithm>

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
  const double sdnn = dsp::stddev_sample(x);
  f[0] = dsp::mean(hr);                                     // [bpm]
  f[1] = mean_nn * 1e3;                                     // [ms]
  f[2] = sdnn * 1e3;                                        // SDNN [ms]

  auto& d = scratch.diffs;  // Successive differences, shared by RMSSD/pNN50.
  dsp::successive_differences_into(x, d);
  f[3] = dsp::rms(d) * 1e3;                                 // RMSSD [ms]
  f[4] = dsp::fraction_abs_above(d, 0.050) * 100.0;         // pNN50 [%]

  f[5] = mean_nn > 0.0 ? sdnn / mean_nn * 100.0 : 0.0;      // CVNN [%]
  f[6] = dsp::stddev_sample(hr);                            // [bpm]

  auto& rr = scratch.sorted;  // One copy serves both IQR percentiles.
  rr.assign(x.begin(), x.end());
  const double q75 = dsp::percentile_select(rr, 75.0);
  const double q25 = dsp::percentile_select(rr, 25.0);
  f[7] = (q75 - q25) * 1e3;                                 // [ms]
}

}  // namespace svt::features
