// End-to-end integration tests: synthetic cohort -> features -> training ->
// tailoring -> fixed-point inference, evaluated with leave-one-session-out
// cross-validation. These assert the *relationships* the paper's evaluation
// depends on, at a scale small enough for CI.
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "core/feature_selection.hpp"
#include "core/quantize.hpp"
#include "features/feature_types.hpp"
#include "svm/cross_validation.hpp"

namespace svt::core {
namespace {

const PreparedData& data() {
  static const PreparedData d = [] {
    ExperimentConfig config;
    config.dataset.windows_per_session = 12;
    return prepare_data(config);
  }();
  return d;
}

ExperimentConfig test_config() {
  ExperimentConfig config;
  config.dataset.windows_per_session = 12;
  config.max_folds = 6;
  return config;
}

TEST(Integration, FloatBaselineDetectsSeizures) {
  const auto r = evaluate_design_point(data(), test_config(), {}, 0, std::nullopt);
  EXPECT_GT(r.geometric_mean, 0.7);
  EXPECT_GT(r.sensitivity, 0.6);
  EXPECT_GT(r.specificity, 0.8);
  EXPECT_GT(r.mean_support_vectors, 10.0);
}

TEST(Integration, FeatureReductionPreservesGm) {
  const auto order = rank_features_by_redundancy(data().matrix.samples);
  const auto base = evaluate_design_point(data(), test_config(), {}, 0, std::nullopt);
  const auto reduced =
      evaluate_design_point(data(), test_config(), order.keep_set(30), 0, std::nullopt);
  // Paper Figure 4: modest loss at 30 features, large resource gain.
  EXPECT_GT(reduced.geometric_mean, base.geometric_mean - 0.12);
  EXPECT_LT(reduced.cost.energy.total_nj, base.cost.energy.total_nj);
  EXPECT_LT(reduced.cost.area.total_mm2, base.cost.area.total_mm2);
}

TEST(Integration, QuantizedPipelineMatchesFloatAtPaperPoint) {
  const auto order = rank_features_by_redundancy(data().matrix.samples);
  const auto keep = order.keep_set(30);
  const auto f = evaluate_design_point(data(), test_config(), keep, 0, std::nullopt);
  QuantConfig quant;  // 9 / 15 bits.
  const auto q = evaluate_design_point(data(), test_config(), keep, 0, quant);
  EXPECT_NEAR(q.geometric_mean, f.geometric_mean, 0.05);
  EXPECT_LT(q.cost.energy.total_nj, 0.25 * f.cost.energy.total_nj);
}

TEST(Integration, SvBudgetSweepIsWellBehaved) {
  const auto results =
      evaluate_design_points(data(), test_config(), {}, {120, 80, 40}, {std::nullopt});
  ASSERT_EQ(results.size(), 3u);
  // SV counts respect the budgets and energy decreases monotonically.
  EXPECT_LE(results[0].mean_support_vectors, 120.5);
  EXPECT_LE(results[1].mean_support_vectors, 80.5);
  EXPECT_LE(results[2].mean_support_vectors, 40.5);
  EXPECT_GT(results[0].cost.energy.total_nj, results[1].cost.energy.total_nj);
  EXPECT_GT(results[1].cost.energy.total_nj, results[2].cost.energy.total_nj);
  // Budgets run tightest-last, and 0 (unbudgeted) may only lead.
  EXPECT_THROW(evaluate_design_points(data(), test_config(), {}, {40, 80}, {std::nullopt}),
               std::invalid_argument);
  EXPECT_THROW(evaluate_design_points(data(), test_config(), {}, {80, 0}, {std::nullopt}),
               std::invalid_argument);
}

TEST(Integration, QuantSweepSharesTrainedModels) {
  QuantConfig q9, q15;
  q9.feature_bits = 9;
  q15.feature_bits = 15;
  const auto results = evaluate_design_points(data(), test_config(), {}, {0}, {q9, q15});
  ASSERT_EQ(results.size(), 2u);
  // Same trained models -> identical SV counts; wider words cost more.
  EXPECT_DOUBLE_EQ(results[0].mean_support_vectors, results[1].mean_support_vectors);
  EXPECT_LT(results[0].cost.energy.total_nj, results[1].cost.energy.total_nj);
}

TEST(Integration, SessionFoldsNeverLeakTestSession) {
  // cross_validate with the session groups must train each fold without the
  // held-out session; verified here via the public API: the transform hook
  // sees each fold's training split, which must be every window but the
  // held-out session's 12.
  std::vector<std::size_t> all_idx(data().matrix.num_features());
  for (std::size_t j = 0; j < all_idx.size(); ++j) all_idx[j] = j;
  svm::CvOptions options;
  options.train.c = 1.0;
  options.post_gains = features::category_gains(all_idx);
  bool leaked = false;
  options.transform = [&](const svm::SvmModel& model,
                          std::span<const std::vector<double>> train_x, std::span<const int>) {
    if (train_x.size() != data().matrix.size() - 12u) leaked = true;
    return model;
  };
  svm::cross_validate(data().matrix.samples, data().matrix.labels, data().groups(0), options);
  EXPECT_FALSE(leaked);
}

TEST(Integration, DesignGridRowsMatchSinglePoints) {
  // Every cell of one grid call equals the single design point it stands
  // for, and the unbudgeted float cell equals cross_validate over the same
  // folds: one fold builder, one model per fold shared across the cells.
  const auto order = rank_features_by_redundancy(data().matrix.samples);
  const auto keep = order.keep_set(30);
  const std::vector<std::size_t> budgets = {0, 40};
  const std::vector<std::optional<QuantConfig>> engines = {std::nullopt, QuantConfig{}};
  const auto grid = evaluate_design_points(data(), test_config(), keep, budgets, engines);
  ASSERT_EQ(grid.size(), 4u);
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    for (std::size_t e = 0; e < engines.size(); ++e) {
      SCOPED_TRACE("budget " + std::to_string(budgets[b]) + ", engine " + std::to_string(e));
      const auto& cell = grid[b * engines.size() + e];
      const auto point = evaluate_design_point(data(), test_config(), keep, budgets[b], engines[e]);
      EXPECT_EQ(cell.sensitivity, point.sensitivity);
      EXPECT_EQ(cell.specificity, point.specificity);
      EXPECT_EQ(cell.geometric_mean, point.geometric_mean);
      EXPECT_EQ(cell.mean_support_vectors, point.mean_support_vectors);
      EXPECT_EQ(cell.cost.energy.total_nj, point.cost.energy.total_nj);
    }
  }

  svm::CvOptions options;
  options.train = test_config().train;
  options.post_gains = features::category_gains(keep);
  const auto reduced = data().matrix.select_features(keep);
  const auto cv = svm::cross_validate(reduced.samples, reduced.labels,
                                      data().groups(test_config().max_folds), options);
  EXPECT_EQ(grid[0].geometric_mean, cv.averages.geometric_mean);
  EXPECT_EQ(grid[0].mean_support_vectors, cv.mean_support_vectors());
}

}  // namespace
}  // namespace svt::core
