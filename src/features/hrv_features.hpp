// HRV time-domain features (paper features 1-8).
#pragma once

#include <span>

#include "features/feature_scratch.hpp"
#include "features/feature_types.hpp"

namespace svt::features {

/// The HRV features of a window's RR intervals `rr_s` [s], written into
/// `out` (out.size() must equal kNumHrvFeatures) with no heap allocation once
/// the scratch is warm. Only the interval values enter the features (an
/// RrSeries' beat times are carried for plotting). Both the dataset path
/// (extract_features) and the streaming segment cache call this.
///
/// Features, in order (conventional HRV units -- ms / bpm / percent):
///  0 mean heart rate [bpm]
///  1 mean NN (RR) interval [ms]
///  2 SDNN: standard deviation of RR [ms]
///  3 RMSSD: RMS of successive RR differences [ms]
///  4 pNN50: percent of successive differences > 50 ms
///  5 CVNN: SDNN / meanNN [%]
///  6 SD of instantaneous heart rate [bpm]
///  7 RR inter-quartile range [ms]
///
/// Windows with fewer than 4 beats yield all-zero features (an unusable
/// window; the generator never produces one, but the API stays total).
void compute_hrv_features(std::span<const double> rr_s, FeatureScratch& scratch,
                          std::span<double> out);

}  // namespace svt::features
