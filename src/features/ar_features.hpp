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

/// The AR gate: a window's AR features come from a Burg fit of its
/// `num_values` EDR values only when there are more than kArOrder + 1 of
/// them and they are not `flat` (population standard deviation <= 0, the
/// test the PSD gate shares); otherwise they stay zero. compute_ar_features
/// and rt::WindowExtractor both gate through this, so the dataset and the
/// served paths fit the same windows.
constexpr bool ar_fit_gate(std::size_t num_values, bool flat) {
  return num_values > kArOrder + 1 && !flat;
}

/// The AR(9) coefficients a1..a9 of a window's EDR values, written into
/// `out` (out.size() must equal kNumArFeatures) with no heap allocation once
/// the scratch is warm; all-zero where ar_fit_gate fails. The EDR rate does
/// not enter the AR model, so the values suffice. The dataset path
/// (extract_features) calls this for one window at a time, which runs the
/// two-lane dsp::ar_burg with the series in both lanes; the streaming
/// extractor fits its windows in pairs instead, with the same gate and the
/// same bits.
void compute_ar_features(std::span<const double> edr_values, FeatureScratch& scratch,
                         std::span<double> out);

}  // namespace svt::features
