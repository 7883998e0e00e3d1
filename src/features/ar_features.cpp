#include "features/ar_features.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "dsp/ar_model.hpp"
#include "dsp/statistics.hpp"

namespace svt::features {

void compute_ar_features(std::span<const double> edr_values, FeatureScratch& scratch,
                         std::span<double> f) {
  SVT_ASSERT(f.size() == kNumArFeatures);
  std::fill(f.begin(), f.end(), 0.0);
  if (edr_values.size() <= kArOrder + 1) return;
  if (dsp::stddev_population(edr_values) <= 0.0) return;
  dsp::ar_burg(edr_values, kArOrder, scratch.burg);
  for (std::size_t i = 0; i < kNumArFeatures; ++i) f[i] = scratch.burg.a[i];
}

}  // namespace svt::features
