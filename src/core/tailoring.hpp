// The combined tailoring flow (paper Section III, "Combining approximation
// techniques") and the user-facing tailored detector.
//
// tailor_detector() runs the full production flow on a training set:
//   1. rank features by aggregated Pearson redundancy and keep the best k,
//   2. train the quadratic SVM (class-weighted SMO),
//   3. budget the support-vector set by low-norm removal + retraining,
//   4. quantise the model for the Figure-2 fixed-point accelerator.
// The result classifies raw (unscaled, full-length) feature vectors and
// reports the hardware cost of its own design point.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/feature_selection.hpp"
#include "core/quantize.hpp"
#include "core/sv_budget.hpp"
#include "hw/accelerator_model.hpp"
#include "svm/model.hpp"
#include "svm/scaler.hpp"
#include "svm/trainer.hpp"

namespace svt::core {

struct TailoringConfig {
  std::size_t num_features = 30;  ///< 0 = keep the full feature set.
  /// When non-empty, use exactly these feature indices instead of the
  /// correlation-driven selection (num_features is then ignored). Useful to
  /// restrict a deployment to front-end-robust feature groups.
  std::vector<std::size_t> explicit_features;
  std::size_t sv_budget = 68;     ///< 0 = no SV budget.
  std::optional<QuantConfig> quant = QuantConfig{};  ///< nullopt = float inference.
  /// For the quadratic kernel, the only one the engines serve.
  svt::svm::TrainParams train;
  /// Per-feature post-normalisation gains (aligned with the *selected*
  /// features; empty = none). See features::category_gains.
  std::vector<double> post_gains;
};

/// A fully tailored seizure detector: feature selection + scaler + (budgeted)
/// SVM + optional fixed-point engine, bundled for deployment.
class TailoredDetector {
 public:
  /// Classify a raw full-length feature vector (all original features; the
  /// detector applies its own selection and centring). Throws on mismatch.
  int classify(std::span<const double> raw_features) const;

  /// Float decision value on the same inputs (diagnostics).
  double decision_value(std::span<const double> raw_features) const;

  /// The shared front half of classification: select this detector's
  /// features from a raw full-length vector and scale them. The returned
  /// row is what the decision engines (float or fixed-point) consume; the
  /// streaming runtime uses this to queue rows for batched classification.
  /// Throws std::invalid_argument if the raw vector is too short.
  std::vector<double> prepare_row(std::span<const double> raw_features) const;

  const std::vector<std::size_t>& selected_features() const { return selected_; }
  const svt::svm::SvmModel& model() const { return model_; }
  const std::optional<QuantizedModel>& quantized() const { return quantized_; }
  const svt::svm::StandardScaler& scaler() const { return scaler_; }

  /// Hardware cost of this detector's design point.
  hw::CostReport hardware_cost(const hw::TechModel& tech = hw::default_tech_model()) const;

  friend TailoredDetector tailor_detector(std::span<const std::vector<double>>,
                                          std::span<const int>, const TailoringConfig&);

 private:
  std::vector<std::size_t> selected_;
  svt::svm::StandardScaler scaler_;
  svt::svm::SvmModel model_;
  std::optional<QuantizedModel> quantized_;
  std::optional<QuantConfig> quant_config_;
};

/// Run the full flow on a (raw) training set. Throws std::invalid_argument
/// on empty/ragged inputs, single-class labels, or num_features exceeding
/// the available features.
TailoredDetector tailor_detector(std::span<const std::vector<double>> samples,
                                 std::span<const int> labels, const TailoringConfig& config);

}  // namespace svt::core
