#include "features/lorentz_features.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "dsp/statistics.hpp"

namespace svt::features {

void compute_lorentz_features(std::span<const double> rr_s, FeatureScratch& scratch,
                              std::span<double> f) {
  SVT_ASSERT(f.size() == kNumLorentzFeatures);
  std::fill(f.begin(), f.end(), 0.0);
  if (rr_s.size() < 4) return;
  const auto& x = rr_s;

  // Rotate successive pairs by 45 degrees: u along the identity line,
  // v perpendicular to it. SD1 = std(v), SD2 = std(u).
  auto& u = scratch.u;
  auto& v = scratch.v;
  u.resize(x.size() - 1);
  v.resize(x.size() - 1);
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    u[i] = (x[i + 1] + x[i]) / std::numbers::sqrt2;
    v[i] = (x[i + 1] - x[i]) / std::numbers::sqrt2;
  }
  const double sd1 = dsp::stddev_sample(v) * 1e3;  // [ms]
  const double sd2 = dsp::stddev_sample(u) * 1e3;  // [ms]

  f[0] = sd1;
  f[1] = sd2;
  f[2] = sd2 > 0.0 ? sd1 / sd2 : 0.0;
  f[3] = std::numbers::pi * sd1 * sd2 / 100.0;  // Ellipse area [10^2 ms^2].
  f[4] = sd1 > 0.0 ? sd2 / sd1 : 0.0;           // CSI.
  const double prod = 16.0 * sd1 * sd2;
  f[5] = prod > 0.0 ? std::log10(prod) : 0.0;   // CVI.
  const double cu = dsp::mean(u);
  const double cv = dsp::mean(v);
  f[6] = std::sqrt(cu * cu + cv * cv) * 1e3;    // Centroid distance [ms].
}

}  // namespace svt::features
