#include "core/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fixed/fixed_point.hpp"
#include "rt/packed_kernel.hpp"
#include "support/quantized_oracle.hpp"
#include "svm/trainer.hpp"

namespace svt::core {
namespace {

using svt::svm::quadratic_kernel;
using svt::svm::SvmModel;
using svt::svm::train_svm;
using svt::svm::TrainParams;

struct Toy {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
};

/// Ring data with heterogeneous feature scales (like the centred
/// physiological features the detector consumes).
Toy scaled_ring(unsigned seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  Toy t;
  for (int i = 0; i < 300; ++i) {
    t.x.push_back({gauss(rng) * 2.0, gauss(rng) * 0.25});
    t.y.push_back(-1);
  }
  for (int i = 0; i < 60; ++i) {
    const double a = gauss(rng), b = gauss(rng);
    const double n = std::hypot(a, b) + 1e-9;
    const double r = 3.0 + 0.3 * gauss(rng);
    t.x.push_back({a / n * r * 2.0, b / n * r * 0.25});
    t.y.push_back(+1);
  }
  return t;
}

SvmModel trained_model(const Toy& t) {
  TrainParams params;
  params.c = 1.0;  // Moderate regularisation: keeps decision margins wide
                   // relative to the alpha mass, as in the real detector.
  return train_svm(t.x, t.y, quadratic_kernel(), params);
}

/// The quantised engine's decision values for every point, through the
/// batch kernel it serves with.
std::vector<double> served_values(const QuantizedModel& q, const Toy& t) {
  rt::KernelScratch scratch;
  std::vector<double> values;
  q.dequantized_decisions(t.x, scratch, values);
  return values;
}

/// Fraction of points classified identically by the float model and the
/// quantised engine, restricted to points a margin away from the float
/// decision boundary (sign flips *at* the boundary are the expected effect
/// of quantisation, not a defect).
double agreement(const SvmModel& m, const QuantizedModel& q, const Toy& t,
                 double margin_frac = 0.10) {
  double max_abs = 0.0;
  for (const auto& x : t.x) max_abs = std::max(max_abs, std::abs(m.decision_value(x)));
  const auto values = served_values(q, t);
  std::size_t same = 0, counted = 0;
  for (std::size_t i = 0; i < t.x.size(); ++i) {
    if (std::abs(m.decision_value(t.x[i])) < margin_frac * max_abs) continue;
    ++counted;
    if (m.predict(t.x[i]) == (values[i] >= 0.0 ? 1 : -1)) ++same;
  }
  return counted == 0 ? 1.0 : static_cast<double>(same) / static_cast<double>(counted);
}

TEST(Quantize, WideWordsMatchFloatDecisions) {
  const auto t = scaled_ring(1);
  const auto m = trained_model(t);
  QuantConfig config;
  config.feature_bits = 15;
  config.alpha_bits = 17;
  const auto q = QuantizedModel::build(m, config);
  EXPECT_GT(agreement(m, q, t), 0.99);
}

TEST(Quantize, PaperDesignPointCloseToFloat) {
  const auto t = scaled_ring(2);
  const auto m = trained_model(t);
  QuantConfig config;  // Defaults: 9 / 15 bits.
  const auto q = QuantizedModel::build(m, config);
  EXPECT_GT(agreement(m, q, t), 0.9);
}

TEST(Quantize, TinyWidthsDegrade) {
  const auto t = scaled_ring(3);
  const auto m = trained_model(t);
  QuantConfig narrow;
  narrow.feature_bits = 4;
  narrow.alpha_bits = 4;
  const auto qn = QuantizedModel::build(m, narrow);
  QuantConfig wide;
  wide.feature_bits = 15;
  wide.alpha_bits = 17;
  const auto qw = QuantizedModel::build(m, wide);
  EXPECT_LT(agreement(m, qn, t), agreement(m, qw, t));
}

TEST(Quantize, PerFeatureRangesReflectScales) {
  const auto t = scaled_ring(4);
  const auto m = trained_model(t);
  const auto q = QuantizedModel::build(m, QuantConfig{});
  ASSERT_EQ(q.feature_ranges().size(), 2u);
  // Feature 0 has 8x the scale of feature 1 -> 3 octaves more range.
  EXPECT_EQ(q.feature_ranges()[0] - q.feature_ranges()[1], 3);
}

TEST(Quantize, HomogeneousForcesGlobalRange) {
  const auto t = scaled_ring(5);
  const auto m = trained_model(t);
  QuantConfig config;
  config.homogeneous = true;
  const auto q = QuantizedModel::build(m, config);
  EXPECT_EQ(q.feature_ranges()[0], q.feature_ranges()[1]);
}

TEST(Quantize, HomogeneousLosesPrecisionAtNarrowWidths) {
  const auto t = scaled_ring(6);
  const auto m = trained_model(t);
  QuantConfig per_feature;
  per_feature.feature_bits = 6;
  QuantConfig homogeneous = per_feature;
  homogeneous.homogeneous = true;
  const auto qp = QuantizedModel::build(m, per_feature);
  const auto qh = QuantizedModel::build(m, homogeneous);
  EXPECT_GE(agreement(m, qp, t), agreement(m, qh, t) - 0.01);
}

TEST(Quantize, InputQuantizationSaturates) {
  const auto t = scaled_ring(7);
  const auto m = trained_model(t);
  const auto q = QuantizedModel::build(m, QuantConfig{});
  std::vector<double> huge{1e9, -1e9};
  const auto qx = quantize_input(q, huge);
  EXPECT_EQ(qx[0], svt::fixed::max_signed_value(9));
  EXPECT_EQ(qx[1], svt::fixed::min_signed_value(9));
  // Saturated inputs still classify without UB, as the oracle does.
  const std::vector<std::vector<double>> batch{huge};
  rt::KernelScratch scratch;
  std::vector<double> values;
  q.dequantized_decisions(batch, scratch, values);
  EXPECT_EQ(values.front(), dequantized_decision(q, huge));
}

TEST(Quantize, DequantizedDecisionTracksFloat) {
  const auto t = scaled_ring(8);
  const auto m = trained_model(t);
  QuantConfig config;
  config.feature_bits = 15;
  config.alpha_bits = 20;
  const auto q = QuantizedModel::build(m, config);
  const auto values = served_values(q, t);
  double max_rel_err = 0.0;
  double max_abs = 0.0;
  for (std::size_t i = 0; i < 50; ++i) {
    const double f = m.decision_value(t.x[i]);
    const double g = values[i];
    max_abs = std::max(max_abs, std::abs(f));
    max_rel_err = std::max(max_rel_err, std::abs(f - g));
  }
  EXPECT_LT(max_rel_err, 0.05 * max_abs);
}

TEST(Quantize, WidthDrivenTruncationKeepsEngineExact) {
  // Dbits=17 with default truncation would need a >31-bit squarer input;
  // the engine must widen the truncation rather than fail.
  const auto t = scaled_ring(9);
  const auto m = trained_model(t);
  QuantConfig config;
  config.feature_bits = 17;
  config.alpha_bits = 17;
  const auto q = QuantizedModel::build(m, config);
  EXPECT_LE(q.pipeline().kernel_input_bits(), 31);
  EXPECT_GT(agreement(m, q, t), 0.98);
}

TEST(Quantize, BuildValidation) {
  const auto t = scaled_ring(10);
  const auto m = trained_model(t);
  QuantConfig bad;
  bad.feature_bits = 1;
  EXPECT_THROW(QuantizedModel::build(m, bad), std::invalid_argument);
  bad = QuantConfig{};
  bad.alpha_bits = 40;
  EXPECT_THROW(QuantizedModel::build(m, bad), std::invalid_argument);
  bad = QuantConfig{};
  bad.dot_truncate_bits = -1;
  EXPECT_THROW(QuantizedModel::build(m, bad), std::invalid_argument);

  auto linear = m;
  linear.kernel = svt::svm::linear_kernel();
  EXPECT_THROW(QuantizedModel::build(linear, QuantConfig{}), std::invalid_argument);

  SvmModel empty;
  empty.kernel = quadratic_kernel();
  EXPECT_THROW(QuantizedModel::build(empty, QuantConfig{}), std::invalid_argument);

  const std::vector<std::vector<double>> wrong_dims{{1.0}};
  const auto q = QuantizedModel::build(m, QuantConfig{});
  rt::KernelScratch scratch;
  std::vector<double> values;
  EXPECT_THROW(q.dequantized_decisions(wrong_dims, scratch, values), std::invalid_argument);
}

TEST(Quantize, SaveLoadRoundTripIsBitExact) {
  const auto t = scaled_ring(31);
  const auto m = trained_model(t);
  for (const bool homogeneous : {false, true}) {
    QuantConfig config;
    config.homogeneous = homogeneous;
    const auto original = QuantizedModel::build(m, config);

    std::stringstream stream;
    original.save(stream);
    const auto loaded = QuantizedModel::load(stream);

    // Every published property survives, including the derived pipeline.
    EXPECT_EQ(loaded.feature_ranges(), original.feature_ranges());
    EXPECT_EQ(loaded.global_alpha_range_log2(), original.global_alpha_range_log2());
    EXPECT_EQ(loaded.num_features(), original.num_features());
    EXPECT_EQ(loaded.num_support_vectors(), original.num_support_vectors());
    const auto& lp = loaded.pipeline();
    const auto& op = original.pipeline();
    EXPECT_EQ(lp.num_features, op.num_features);
    EXPECT_EQ(lp.num_support_vectors, op.num_support_vectors);
    EXPECT_EQ(lp.feature_bits, op.feature_bits);
    EXPECT_EQ(lp.alpha_bits, op.alpha_bits);
    EXPECT_EQ(lp.dot_truncate_bits, op.dot_truncate_bits);
    EXPECT_EQ(lp.square_truncate_bits, op.square_truncate_bits);
    EXPECT_EQ(loaded.config().dot_truncate_bits, original.config().dot_truncate_bits);

    // Bit-exact inference: identical integer accumulators, identical scale,
    // and the served batch kernel matches the per-window oracle.
    const auto want = served_values(original, t);
    EXPECT_EQ(served_values(loaded, t), want);
    for (std::size_t i = 0; i < t.x.size(); ++i) {
      EXPECT_EQ(quantize_input(loaded, t.x[i]), quantize_input(original, t.x[i]));
      EXPECT_EQ(dequantized_decision(loaded, t.x[i]), want[i]);
    }

    // Serialisation is a fixed point: re-saving reproduces the bytes.
    std::stringstream again;
    loaded.save(again);
    EXPECT_EQ(stream.str(), again.str());
  }
}

TEST(Quantize, LoadRejectsCorruptInput) {
  const auto t = scaled_ring(32);
  const auto q = QuantizedModel::build(trained_model(t), QuantConfig{});
  std::stringstream stream;
  q.save(stream);
  const std::string text = stream.str();

  std::stringstream bad_header("qmodel v9\n");
  EXPECT_THROW(QuantizedModel::load(bad_header), std::invalid_argument);
  std::stringstream truncated(text.substr(0, text.size() - text.size() / 3));
  EXPECT_THROW(QuantizedModel::load(truncated), std::invalid_argument);
  std::string corrupt = text;
  const auto nsv_at = corrupt.find("nsv ");
  corrupt.replace(nsv_at, corrupt.find('\n', nsv_at) - nsv_at, "nsv 0");  // Empty SV table.
  std::stringstream empty_svs(corrupt);
  EXPECT_THROW(QuantizedModel::load(empty_svs), std::invalid_argument);

  // A wild feature range would demand a >62-bit scale-back shift (UB in the
  // int64 kernels); it must be rejected at load, not at first classify.
  std::string wild = text;
  const auto ranges_at = wild.find("ranges ");
  wild.replace(ranges_at, wild.find('\n', ranges_at) - ranges_at, "ranges 40 0");
  std::stringstream wild_ranges(wild);
  EXPECT_THROW(QuantizedModel::load(wild_ranges), std::invalid_argument);
}

// Property: agreement with float is monotone (within tolerance) in Dbits.
class QuantWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantWidthSweep, AgreementReasonableAtModerateWidths) {
  const auto t = scaled_ring(20);
  const auto m = trained_model(t);
  QuantConfig config;
  config.feature_bits = GetParam();
  const auto q = QuantizedModel::build(m, config);
  EXPECT_GT(agreement(m, q, t), 0.88) << "Dbits=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantWidthSweep, ::testing::Values(9, 11, 13, 15, 17));

}  // namespace
}  // namespace svt::core
