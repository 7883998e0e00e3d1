// Feature standardisation.
//
// Fitted on the training fold only and applied to both folds -- the usual
// guard against test-set leakage. Z-scores every column (subtract mean,
// divide by std; constant features -> 0), then applies the optional
// per-feature post gains: full z-scoring alone would erase the magnitude
// heterogeneity the paper's per-feature power-of-two ranges (Eq. 6) exist to
// handle, so the gains restore category-typical scales.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

namespace svt::svm {

class StandardScaler {
 public:
  /// Fit means/stds per column. Throws std::invalid_argument on empty input
  /// or ragged rows.
  void fit(std::span<const std::vector<double>> samples);

  /// Transform one sample in place. Throws if not fitted or size mismatch.
  void transform_inplace(std::vector<double>& sample) const;

  /// Span variant (the implementation; the vector overload delegates): lets
  /// the zero-allocation serving path scale rows in caller-owned buffers.
  void transform_inplace(std::span<double> sample) const;

  /// Transform a copy.
  std::vector<double> transform(std::span<const double> sample) const;

  /// Transform a whole matrix.
  std::vector<std::vector<double>> transform_all(
      std::span<const std::vector<double>> samples) const;

  /// Fixed per-feature gains applied *after* normalisation (empty = none).
  /// Used to express category-typical magnitude conventions: the inference
  /// hardware sees features whose ranges differ across categories, which is
  /// what the paper's per-feature power-of-two scaling exists to handle.
  /// Must match the feature count at transform time.
  void set_post_gains(std::vector<double> gains) { gains_ = std::move(gains); }
  const std::vector<double>& post_gains() const { return gains_; }

  /// Text serialisation (round-trippable, full double precision; the same
  /// line-oriented format as SvmModel::save). A fitted scaler is part of a
  /// deployable per-patient model, so it persists with it.
  void save(std::ostream& os) const;
  static StandardScaler load(std::istream& is);

  bool fitted() const { return !mean_.empty(); }
  std::size_t num_features() const { return mean_.size(); }
  const std::vector<double>& means() const { return mean_; }
  const std::vector<double>& stds() const { return std_; }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
  std::vector<double> gains_;
};

}  // namespace svt::svm
