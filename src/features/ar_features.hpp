// Auto-regressive EDR features (paper features 16-24).
//
// The linear coefficients a1..a9 of an AR(9) model of the ECG-derived
// respiration series, estimated with Burg's method (robust on the short
// 3-minute windows the paper uses).
#pragma once

#include <span>

#include "features/feature_scratch.hpp"
#include "features/feature_types.hpp"

namespace svt::features {

inline constexpr std::size_t kArOrder = kNumArFeatures;  // AR(9).

/// The AR(9) coefficients a1..a9 of a window's EDR values, written into
/// `out` (out.size() must equal kNumArFeatures) with no heap allocation once
/// the scratch is warm; all-zero if the window is too short or the series is
/// constant. The EDR rate does not enter the AR model, so the values
/// suffice. Both the dataset path (extract_features) and the streaming
/// segment cache call this.
void compute_ar_features(std::span<const double> edr_values, FeatureScratch& scratch,
                         std::span<double> out);

}  // namespace svt::features
