// The combined tailoring flow (paper Section III, "Combining approximation
// techniques") and the tailored detector it produces.
//
// tailor_detector() runs the full production flow on a training set:
//   1. rank features by aggregated Pearson redundancy and keep the best k,
//   2. train the quadratic SVM (class-weighted SMO),
//   3. budget the support-vector set by low-norm removal + retraining,
//   4. quantise the model for the Figure-2 fixed-point accelerator.
// The result is a training result, not a classifier: the selection, scaler,
// model and quantised engine, plus the hardware cost of its design point.
// rt::ServableModel::from_detector turns it into the one unit that
// classifies, on the engines every serving path runs.
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

/// A tailored seizure detector, as tailor_detector returns it: the feature
/// selection, the scaler fitted to it, the (budgeted) SVM, the optional
/// fixed-point engine and the design point's hardware cost. It does not
/// classify; rt::ServableModel::from_detector serves it.
class TailoredDetector {
 public:
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
