#include "core/tailoring.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace svt::core {

hw::CostReport TailoredDetector::hardware_cost(const hw::TechModel& tech) const {
  return hw::estimate_cost(
      design_pipeline(model_.num_features(), model_.num_support_vectors(), quant_config_), tech);
}

TailoredDetector tailor_detector(std::span<const std::vector<double>> samples,
                                 std::span<const int> labels, const TailoringConfig& config) {
  if (samples.empty() || samples.size() != labels.size())
    throw std::invalid_argument("tailor_detector: bad training set");
  const std::size_t total_features = samples.front().size();
  if (config.num_features > total_features)
    throw std::invalid_argument("tailor_detector: num_features exceeds available features");

  TailoredDetector detector;

  // 1. Feature selection on the raw training matrix.
  if (!config.explicit_features.empty()) {
    for (std::size_t j : config.explicit_features) {
      if (j >= total_features)
        throw std::invalid_argument("tailor_detector: explicit feature index out of range");
    }
    detector.selected_ = config.explicit_features;
  } else if (config.num_features == 0 || config.num_features == total_features) {
    detector.selected_.resize(total_features);
    for (std::size_t j = 0; j < total_features; ++j) detector.selected_[j] = j;
  } else {
    const auto order = rank_features_by_redundancy(samples);
    detector.selected_ = order.keep_set(config.num_features);
  }

  std::vector<std::vector<double>> reduced;
  reduced.reserve(samples.size());
  for (const auto& row : samples) {
    std::vector<double> r;
    r.reserve(detector.selected_.size());
    for (std::size_t j : detector.selected_) r.push_back(row[j]);
    reduced.push_back(std::move(r));
  }

  // 2. Normalise and train.
  if (!config.post_gains.empty()) {
    if (config.post_gains.size() != detector.selected_.size())
      throw std::invalid_argument("tailor_detector: post_gains size mismatch");
    detector.scaler_.set_post_gains(config.post_gains);
  }
  detector.scaler_.fit(reduced);
  const auto scaled = detector.scaler_.transform_all(reduced);
  std::vector<int> y(labels.begin(), labels.end());
  detector.model_ = svt::svm::train_svm(scaled, y, svt::svm::quadratic_kernel(), config.train);

  // 3. SV budgeting.
  if (config.sv_budget > 0 && detector.model_.num_support_vectors() > config.sv_budget) {
    BudgetParams bp;
    bp.budget = config.sv_budget;
    detector.model_ =
        budget_support_vectors(detector.model_, scaled, y, config.train, bp);
  }

  // 4. Fixed-point quantisation.
  detector.quant_config_ = config.quant;
  if (config.quant) detector.quantized_ = QuantizedModel::build(detector.model_, *config.quant);
  return detector;
}

}  // namespace svt::core
