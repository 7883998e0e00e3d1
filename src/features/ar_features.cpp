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
  const bool flat = edr_values.empty() || dsp::stddev_population(edr_values) <= 0.0;
  if (!ar_fit_gate(edr_values.size(), flat)) return;
  dsp::ar_burg(edr_values, edr_values, kArOrder, scratch.burg);
  const auto& a = scratch.burg.model[0].coefficients;
  std::copy(a.begin(), a.end(), f.begin());
}

}  // namespace svt::features
