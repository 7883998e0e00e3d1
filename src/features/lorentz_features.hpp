// Lorentz (Poincare) plot features (paper features 9-15).
//
// The Lorentz plot scatters successive RR pairs (RR[n], RR[n+1]). Its
// geometry summarises short- vs long-term variability: SD1 is the dispersion
// perpendicular to the identity line (beat-to-beat), SD2 along it
// (long-term). Seizure-induced autonomic changes shrink and displace the
// cloud, which these features capture.
#pragma once

#include <span>

#include "features/feature_scratch.hpp"
#include "features/feature_types.hpp"

namespace svt::features {

/// The Lorentz-plot features of a window's RR intervals `rr_s` [s], written
/// into `out` (out.size() must equal kNumLorentzFeatures) with no heap
/// allocation once the scratch is warm. Both the dataset path
/// (extract_features) and the streaming segment cache call this.
///
/// Features, in order:
///  0 SD1 [ms]
///  1 SD2 [ms]
///  2 SD1/SD2 ratio
///  3 ellipse area pi*SD1*SD2 [10^2 ms^2]
///  4 CSI (cardiac sympathetic index) = SD2/SD1
///  5 CVI (cardiac vagal index) = log10(16 * SD1 * SD2)
///  6 centroid distance from origin [ms]
///
/// Windows with fewer than 4 beats yield all-zero features.
void compute_lorentz_features(std::span<const double> rr_s, FeatureScratch& scratch,
                              std::span<double> out);

}  // namespace svt::features
