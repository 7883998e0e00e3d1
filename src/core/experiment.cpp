#include "core/experiment.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/sv_budget.hpp"
#include "svm/cross_validation.hpp"

namespace svt::core {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<std::uint64_t>(v);
}

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw) return fallback;
  return v;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : std::string(raw);
}

ExperimentConfig ExperimentConfig::from_env() {
  ExperimentConfig config;
  config.dataset.windows_per_session =
      static_cast<int>(env_u64("SVT_WPS", static_cast<std::uint64_t>(
                                              config.dataset.windows_per_session)));
  config.dataset.seed = env_u64("SVT_SEED", config.dataset.seed);
  config.max_folds = env_u64("SVT_FOLDS", 0);
  config.csv_dir = env_string("SVT_CSV_DIR", ".");
  config.train.c = env_double("SVT_C", config.train.c);
  return config;
}

std::vector<int> PreparedData::groups(std::size_t max_folds) const {
  std::vector<int> groups = matrix.session_index;
  if (max_folds == 0) return groups;
  for (int& g : groups) {
    if (g >= static_cast<int>(max_folds)) g = -1;
  }
  return groups;
}

PreparedData prepare_data(const ExperimentConfig& config) {
  PreparedData data;
  data.dataset = ecg::generate_dataset(config.dataset);
  data.matrix = features::extract_feature_matrix(data.dataset);
  return data;
}

std::vector<DesignPointResult> evaluate_design_points(
    const PreparedData& data, const ExperimentConfig& config,
    const std::vector<std::size_t>& keep, const std::vector<std::size_t>& budgets,
    const std::vector<std::optional<QuantConfig>>& engines) {
  // An optional leading 0 (unbudgeted), then strictly decreasing budgets.
  for (std::size_t b = 1; b < budgets.size(); ++b) {
    if (budgets[b] == 0 || (budgets[b - 1] > 0 && budgets[b] >= budgets[b - 1]))
      throw std::invalid_argument("evaluate_design_points: budgets out of order");
  }
  const features::FeatureMatrix matrix =
      keep.empty() ? data.matrix : data.matrix.select_features(keep);
  std::vector<std::size_t> columns = keep;
  if (columns.empty()) {
    columns.resize(matrix.num_features());
    std::iota(columns.begin(), columns.end(), std::size_t{0});
  }
  auto folds = svt::svm::make_folds(matrix.samples, matrix.labels, data.groups(config.max_folds),
                                    features::category_gains(columns));

  const std::size_t cells = budgets.size() * engines.size();
  std::vector<std::vector<svt::svm::ConfusionMatrix>> confusions(cells);
  std::vector<double> sv_totals(budgets.size(), 0.0);
  std::size_t trained = 0;
  rt::KernelScratch scratch;
  std::vector<double> values;
  for (auto& fold : folds) {
    if (!fold.usable) continue;
    ++trained;
    auto model = svt::svm::train_svm(fold.train_x, fold.train_y, svt::svm::quadratic_kernel(),
                                     config.train);
    std::vector<int> predicted(fold.test_x.size());
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      if (budgets[b] > 0 && model.num_support_vectors() > budgets[b]) {
        // The fold's training set shrinks to the survivors, where the next
        // (tighter) budget continues.
        BudgetParams bp;
        bp.budget = budgets[b];
        model = budget_support_vectors(model, fold.train_x, fold.train_y, config.train, bp,
                                       /*report=*/nullptr, &fold.train_x, &fold.train_y);
      }
      sv_totals[b] += static_cast<double>(model.num_support_vectors());
      for (std::size_t e = 0; e < engines.size(); ++e) {
        if (engines[e]) {
          // The served batch kernel, one call per fold; the sign is the label.
          const auto engine = QuantizedModel::build(model, *engines[e]);
          engine.dequantized_decisions(fold.test_x, scratch, values);
          for (std::size_t i = 0; i < fold.test_x.size(); ++i)
            predicted[i] = values[i] >= 0.0 ? +1 : -1;
        } else {
          for (std::size_t i = 0; i < fold.test_x.size(); ++i)
            predicted[i] = model.predict(fold.test_x[i]);
        }
        confusions[b * engines.size() + e].push_back(svt::svm::tally(fold.test_y, predicted));
      }
    }
  }

  std::vector<DesignPointResult> results(cells);
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const double mean_nsv = trained > 0 ? sv_totals[b] / static_cast<double>(trained) : 0.0;
    const auto nsv = std::max<std::size_t>(1, static_cast<std::size_t>(mean_nsv + 0.5));
    for (std::size_t e = 0; e < engines.size(); ++e) {
      DesignPointResult& r = results[b * engines.size() + e];
      const auto avg = svt::svm::average_over_folds(confusions[b * engines.size() + e]);
      r.sensitivity = avg.sensitivity;
      r.specificity = avg.specificity;
      r.geometric_mean = avg.geometric_mean;
      r.mean_support_vectors = mean_nsv;
      r.cost = hw::estimate_cost(design_pipeline(matrix.num_features(), nsv, engines[e]));
    }
  }
  return results;
}

DesignPointResult evaluate_design_point(const PreparedData& data,
                                        const ExperimentConfig& config,
                                        const std::vector<std::size_t>& keep,
                                        std::size_t sv_budget,
                                        const std::optional<QuantConfig>& quant) {
  return evaluate_design_points(data, config, keep, {sv_budget}, {quant}).front();
}

}  // namespace svt::core
