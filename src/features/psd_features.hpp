// Power-spectral-density EDR features (paper features 25-53).
//
// Welch PSD of the EDR series (4 Hz sampling -> 0..2 Hz one-sided), summarised
// as 25 log band powers over equal-width bands covering [0, 2) Hz plus four
// spectral summaries. Neighbouring narrow bands of a smooth respiratory
// spectrum are strongly correlated, which reproduces the paper's Figure-3
// observation that "most PSD features encode information redundantly".
#pragma once

#include <span>

#include "features/feature_scratch.hpp"
#include "features/feature_types.hpp"

namespace svt::features {

inline constexpr std::size_t kNumPsdBands = 25;

/// The PSD features of a window's EDR values sampled at `edr_fs_hz`, written
/// into `out` (out.size() must equal kNumPsdFeatures) with no heap
/// allocation once the scratch is warm; all-zero below 32 values or for a
/// constant series. The dataset path (extract_features) calls this; the
/// streaming segment cache does not (it assembles the Welch PSD from
/// memoized per-segment periodograms) but shares summarize_psd below.
///
/// Features, in order:
///  0..24  log10(band power + eps) over 25 equal bands spanning [0, fs/2)
///  25     log10(total power + eps)
///  26     low/high respiratory band power ratio ([0.1,0.25) / [0.25,0.5) Hz)
///  27     peak (dominant respiratory) frequency in [0.05, 0.6) Hz
///  28     95% spectral edge frequency
void compute_psd_features(std::span<const double> edr_values, double edr_fs_hz,
                          FeatureScratch& scratch, std::span<double> out);

/// The band-power / summary half of compute_psd_features: fills all
/// kNumPsdFeatures values from an already-computed Welch PSD. Split out so
/// the incremental feature pipeline can feed a PSD averaged from cached
/// per-segment periodograms through the exact same summary arithmetic.
void summarize_psd(const dsp::PsdEstimate& psd, double edr_fs_hz, std::span<double> out);

}  // namespace svt::features
