// Full 53-feature extraction and dataset-to-matrix assembly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ecg/dataset.hpp"
#include "features/feature_scratch.hpp"
#include "features/feature_types.hpp"

namespace svt::features {

/// Labelled feature matrix in the layout the SVM layer consumes.
struct FeatureMatrix {
  std::vector<std::vector<double>> samples;  ///< samples[i] = feature vector of window i.
  std::vector<int> labels;                   ///< +1 / -1, aligned with samples.
  std::vector<int> session_index;            ///< Fold id per sample.
  std::vector<int> patient_id;               ///< Patient per sample.

  std::size_t size() const { return samples.size(); }
  std::size_t num_features() const { return samples.empty() ? 0 : samples.front().size(); }

  /// Keep only the listed feature columns (in the given order).
  FeatureMatrix select_features(const std::vector<std::size_t>& kept) const;

  /// Rows whose index is in `rows` (e.g. a fold's train or test indices).
  FeatureMatrix select_rows(const std::vector<std::size_t>& rows) const;
};

/// Extract the 53-dimensional feature vector of one window.
std::vector<double> extract_features(const ecg::WindowRecord& window);

/// Scratch variant over the two physiological series: writes the
/// kNumFeatures values into `out` (out.size() must equal kNumFeatures) with
/// no heap allocation once the scratch is warm. Bit-identical to the
/// allocating overload, which delegates here.
void extract_features(const ecg::RrSeries& rr, const ecg::RespirationSeries& edr,
                      FeatureScratch& scratch, std::span<double> out);

/// Extract features for every window of a dataset (session order).
FeatureMatrix extract_feature_matrix(const ecg::Dataset& dataset);

}  // namespace svt::features
