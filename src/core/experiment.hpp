// Shared experiment scaffolding for the benches: dataset/feature preparation
// with environment-variable scaling, and the one design-point loop behind
// every figure (Table I's kernel comparison and the no-retraining ablation
// run svm::cross_validate over the same folds).
//
// Environment knobs (all optional):
//   SVT_WPS    windows per session (default 30; the paper's 140 h of data
//              correspond to ~116).
//   SVT_FOLDS  number of leave-one-session-out folds evaluated (default all
//              24; lower it for quick runs).
//   SVT_SEED   dataset generation seed (default 42).
//   SVT_C      SVM soft-margin penalty C (default 1).
//   SVT_BUDGET SV budget of the reduced design in fig6/fig7 (default 100).
//   SVT_CSV_DIR  where benches drop their CSV dumps (default ".").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/quantize.hpp"
#include "ecg/dataset.hpp"
#include "features/extractor.hpp"
#include "hw/accelerator_model.hpp"
#include "svm/trainer.hpp"

namespace svt::core {

struct ExperimentConfig {
  ecg::DatasetParams dataset;
  svt::svm::TrainParams train;
  std::size_t max_folds = 0;  ///< 0 = all sessions.
  std::string csv_dir = ".";

  /// Defaults overridden by the SVT_* environment variables.
  static ExperimentConfig from_env();
};

/// Dataset + extracted features, ready for cross-validation.
struct PreparedData {
  ecg::Dataset dataset;
  features::FeatureMatrix matrix;

  /// Fold id per sample: the session index, with sessions at or past
  /// `max_folds` marked training-only (-1) so they still train every fold
  /// (0 = every session is a fold).
  std::vector<int> groups(std::size_t max_folds) const;
};

/// Generate the cohort and extract all 53 features (deterministic).
PreparedData prepare_data(const ExperimentConfig& config);

/// One design point, scored over the leave-one-session-out folds.
struct DesignPointResult {
  double sensitivity = 0.0;
  double specificity = 0.0;
  double geometric_mean = 0.0;
  double mean_support_vectors = 0.0;
  hw::CostReport cost;  ///< At the mean SV count of the folds.
};

/// The paper's design-space loop over the folds of
/// `data.groups(config.max_folds)`, restricted to the `keep` features (empty =
/// all, in order). Each fold trains one quadratic SVM, then applies `budgets`
/// in order: an optional leading 0 (unbudgeted), then strictly decreasing SV
/// budgets, each continuing from the previous budget's surviving training
/// set (the paper's iterative removal, observed at several stop points).
/// Every engine (nullopt = float, SvmModel::predict; else the fixed-point
/// QuantizedModel through dequantized_decisions, the batch kernel the
/// engines serve) classifies every budgeted model, and each cell is costed by
/// design_pipeline at its mean SV count. Returns
/// `results[b * engines.size() + e]`. Throws std::invalid_argument on a
/// budget list of any other shape.
std::vector<DesignPointResult> evaluate_design_points(
    const PreparedData& data, const ExperimentConfig& config,
    const std::vector<std::size_t>& keep, const std::vector<std::size_t>& budgets,
    const std::vector<std::optional<QuantConfig>>& engines);

/// One design point: the grid's 1x1 call. `sv_budget`: 0 = unbudgeted.
DesignPointResult evaluate_design_point(const PreparedData& data,
                                        const ExperimentConfig& config,
                                        const std::vector<std::size_t>& keep,
                                        std::size_t sv_budget,
                                        const std::optional<QuantConfig>& quant);

/// Read a size_t / uint64 environment variable (returns fallback if unset or
/// unparseable).
std::uint64_t env_u64(const char* name, std::uint64_t fallback);
double env_double(const char* name, double fallback);
std::string env_string(const char* name, const std::string& fallback);

}  // namespace svt::core
