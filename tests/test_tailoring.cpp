#include "core/tailoring.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/experiment.hpp"
#include "features/extractor.hpp"
#include "rt/model_registry.hpp"
#include "support/fixtures.hpp"

namespace svt::core {
namespace {

/// Shared small dataset (generation is the expensive part).
const features::FeatureMatrix& matrix() {
  static const features::FeatureMatrix m = [] {
    ecg::DatasetParams params;
    params.windows_per_session = 10;
    const auto ds = ecg::generate_dataset(params);
    return features::extract_feature_matrix(ds);
  }();
  return m;
}

TailoringConfig standard_config() {
  TailoringConfig config;
  config.num_features = 30;
  config.sv_budget = 100;
  return config;
}

TEST(Tailoring, FullFlowProducesWorkingDetector) {
  auto config = standard_config();
  const auto detector = tailor_detector(matrix().samples, matrix().labels, config);
  EXPECT_EQ(detector.selected_features().size(), 30u);
  EXPECT_LE(detector.model().num_support_vectors(), 100u);
  ASSERT_TRUE(detector.quantized().has_value());
  // Training-set accuracy, served through the fixed-point engine, should be
  // far above chance.
  const auto served = rt::ServableModel::from_detector(detector);
  const auto values = test::served_values(served, matrix().samples);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < matrix().size(); ++i) {
    if ((values[i] >= 0.0 ? 1 : -1) == matrix().labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(matrix().size()), 0.85);
}

TEST(Tailoring, FloatVariantSkipsQuantization) {
  auto config = standard_config();
  config.quant.reset();
  const auto detector = tailor_detector(matrix().samples, matrix().labels, config);
  EXPECT_FALSE(detector.quantized().has_value());
  // Served through the packed float engine, which tracks the float model.
  const auto served = rt::ServableModel::from_detector(detector);
  ASSERT_TRUE(served.packed().has_value());
  const std::span<const std::vector<double>> raw(matrix().samples.data(), 16);
  const auto rows = test::prepared_rows(served, raw);
  const auto values = test::served_values(served, raw);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double want = detector.model().decision_value(rows[i]);
    EXPECT_NEAR(values[i], want, 1e-9 * (1.0 + std::abs(want))) << "window " << i;
  }
}

TEST(Tailoring, ZeroMeansKeepEverything) {
  TailoringConfig config;
  config.num_features = 0;
  config.sv_budget = 0;
  config.quant.reset();
  const auto detector = tailor_detector(matrix().samples, matrix().labels, config);
  EXPECT_EQ(detector.selected_features().size(), features::kNumFeatures);
}

TEST(Tailoring, HardwareCostReflectsQuantization) {
  auto config = standard_config();
  const auto quantized = tailor_detector(matrix().samples, matrix().labels, config);
  config.quant.reset();
  const auto floating = tailor_detector(matrix().samples, matrix().labels, config);
  const auto cq = quantized.hardware_cost();
  const auto cf = floating.hardware_cost();
  EXPECT_LT(cq.energy.total_nj, cf.energy.total_nj);
  EXPECT_LT(cq.area.total_mm2, cf.area.total_mm2);
  EXPECT_EQ(cq.config.feature_bits, 9);
  EXPECT_EQ(cf.config.feature_bits, 64);
}

TEST(Tailoring, PostGainsValidated) {
  auto config = standard_config();
  config.post_gains = {1.0, 2.0};  // Wrong size (selection keeps 30).
  EXPECT_THROW(tailor_detector(matrix().samples, matrix().labels, config),
               std::invalid_argument);
}

TEST(Tailoring, InputValidation) {
  TailoringConfig config;
  std::vector<std::vector<double>> empty;
  std::vector<int> no_labels;
  EXPECT_THROW(tailor_detector(empty, no_labels, config), std::invalid_argument);
  config.num_features = 999;
  EXPECT_THROW(tailor_detector(matrix().samples, matrix().labels, config),
               std::invalid_argument);
}

TEST(Experiment, EnvHelpers) {
  EXPECT_EQ(env_u64("SVT_DOES_NOT_EXIST_XYZ", 17), 17u);
  EXPECT_DOUBLE_EQ(env_double("SVT_DOES_NOT_EXIST_XYZ", 1.5), 1.5);
  EXPECT_EQ(env_string("SVT_DOES_NOT_EXIST_XYZ", "abc"), "abc");
}

TEST(Experiment, PreparedDataShape) {
  ExperimentConfig config;
  config.dataset.windows_per_session = 4;
  const auto data = prepare_data(config);
  EXPECT_EQ(data.matrix.size(), data.dataset.num_windows());
  EXPECT_EQ(data.groups(0), data.matrix.session_index);
  // The fold cap keeps sessions past it as training-only (-1) samples.
  const auto capped = data.groups(6);
  ASSERT_EQ(capped.size(), data.matrix.size());
  for (std::size_t i = 0; i < capped.size(); ++i) {
    const int session = data.matrix.session_index[i];
    EXPECT_EQ(capped[i], session < 6 ? session : -1);
  }
}

}  // namespace
}  // namespace svt::core
