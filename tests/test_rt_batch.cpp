// Parity tests for the packed batch kernels: each engine's one batch entry
// (rt::PackedModel::decision_values, core::QuantizedModel::
// dequantized_decisions) must match its per-window reference -- the
// fixed-point oracle in tests/support bit-exactly, svm::SvmModel to
// floating rounding of pow(s,2) vs s*s for the float path.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/quantize.hpp"
#include "rt/packed_kernel.hpp"
#include "rt/packed_model.hpp"
#include "support/quantized_oracle.hpp"
#include "svm/kernel.hpp"
#include "svm/model.hpp"

namespace svt {
namespace {

svm::SvmModel random_quadratic_model(std::size_t nsv, std::size_t nfeat, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> sv_dist(-2.0, 2.0);
  std::uniform_real_distribution<double> alpha_dist(-1.0, 1.0);
  svm::SvmModel m;
  m.kernel = svm::quadratic_kernel();
  m.support_vectors.resize(nsv, std::vector<double>(nfeat));
  m.alpha_y.resize(nsv);
  for (std::size_t i = 0; i < nsv; ++i) {
    for (std::size_t j = 0; j < nfeat; ++j) m.support_vectors[i][j] = sv_dist(rng);
    m.alpha_y[i] = alpha_dist(rng);
  }
  m.bias = -0.3;
  return m;
}

/// Random batch; `spread` > 1 pushes some values outside the SV ranges so
/// the fixed-point path exercises input saturation.
std::vector<std::vector<double>> random_batch(std::size_t nwin, std::size_t nfeat,
                                              double spread, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-spread, spread);
  std::vector<std::vector<double>> xs(nwin, std::vector<double>(nfeat));
  for (auto& row : xs)
    for (auto& v : row) v = dist(rng);
  return xs;
}

/// PackedModel's batch entry through a fresh scratch.
std::vector<double> packed_values(const rt::PackedModel& packed,
                                  const std::vector<std::vector<double>>& xs) {
  std::vector<double> out(xs.size());
  rt::KernelScratch scratch;
  packed.decision_values(xs, out, scratch);
  return out;
}

/// QuantizedModel's batch entry through a fresh scratch.
std::vector<double> quantized_values(const core::QuantizedModel& qm,
                                     const std::vector<std::vector<double>>& xs) {
  std::vector<double> out;
  rt::KernelScratch scratch;
  qm.dequantized_decisions(xs, scratch, out);
  return out;
}

TEST(BatchDecision, MatchesPerWindowFloatEngine) {
  const auto m = random_quadratic_model(68, 30, 7);
  const rt::PackedModel packed(m);
  // Sizes straddling the window-block boundary, plus a 64-window batch.
  for (std::size_t nwin : {1u, 15u, 16u, 17u, 64u}) {
    const auto xs = random_batch(nwin, 30, 2.0, 100 + nwin);
    const auto batched = packed_values(packed, xs);
    ASSERT_EQ(batched.size(), nwin);
    for (std::size_t w = 0; w < nwin; ++w) {
      const double single = m.decision_value(xs[w]);
      EXPECT_NEAR(batched[w], single, 1e-9 * (1.0 + std::abs(single))) << "window " << w;
    }
  }
}

TEST(BatchDecision, PackedModelMatchesModelBatch) {
  const auto m = random_quadratic_model(33, 12, 11);
  const rt::PackedModel packed(m);
  EXPECT_EQ(packed.num_features(), 12u);
  EXPECT_EQ(packed.num_support_vectors(), 33u);
  const auto xs = random_batch(37, 12, 2.0, 5);
  const auto values = packed_values(packed, xs);
  for (std::size_t w = 0; w < xs.size(); ++w)
    EXPECT_DOUBLE_EQ(values[w], m.decision_value(xs[w])) << "window " << w;
}

TEST(BatchDecision, EmptyModelAndEmptyBatch) {
  EXPECT_THROW(rt::PackedModel(svm::SvmModel{}), std::invalid_argument);
  const rt::PackedModel packed(random_quadratic_model(4, 3, 1));
  EXPECT_TRUE(packed_values(packed, {}).empty());
}

TEST(BatchDecision, RejectsBadShapes) {
  const rt::PackedModel packed(random_quadratic_model(5, 4, 2));
  rt::KernelScratch scratch;
  auto xs = random_batch(3, 4, 1.0, 1);
  xs[1].pop_back();
  std::vector<double> out(3);
  EXPECT_THROW(packed.decision_values(xs, out, scratch), std::invalid_argument);
  const auto good = random_batch(3, 4, 1.0, 1);
  out.resize(2);  // Wrong output size.
  EXPECT_THROW(packed.decision_values(good, out, scratch), std::invalid_argument);
}

TEST(BatchQuantized, BitExactVsPerWindowEngine) {
  const auto m = random_quadratic_model(68, 30, 13);
  core::QuantConfig qc;  // Paper design point: 9-bit features, 15-bit alphas.
  const auto qm = core::QuantizedModel::build(m, qc);
  // spread 4.0 saturates some inputs; batch sizes straddle the block size.
  for (std::size_t nwin : {1u, 16u, 21u, 64u}) {
    const auto xs = random_batch(nwin, 30, 4.0, 3000 + nwin);
    const auto values = quantized_values(qm, xs);
    ASSERT_EQ(values.size(), nwin);
    for (std::size_t w = 0; w < nwin; ++w) {
      // The serving label rule on the batch value is the engine's sign.
      EXPECT_EQ(values[w] >= 0.0 ? +1 : -1, core::classify(qm, xs[w])) << "window " << w;
      // Same integer accumulator, same scale: bit-exact, not just close.
      EXPECT_EQ(values[w], core::dequantized_decision(qm, xs[w])) << "window " << w;
    }
  }
}

TEST(BatchQuantized, BitExactAtNarrowWidths) {
  // Narrow widths saturate aggressively in every pipeline stage; the batched
  // kernel must reproduce the per-window saturation chain exactly.
  const auto m = random_quadratic_model(40, 16, 17);
  core::QuantConfig qc;
  qc.feature_bits = 4;
  qc.alpha_bits = 5;
  qc.dot_truncate_bits = 2;
  qc.square_truncate_bits = 2;
  const auto qm = core::QuantizedModel::build(m, qc);
  const auto xs = random_batch(48, 16, 6.0, 77);
  const auto values = quantized_values(qm, xs);
  for (std::size_t w = 0; w < xs.size(); ++w)
    EXPECT_EQ(values[w], core::dequantized_decision(qm, xs[w])) << "window " << w;
}

TEST(BatchQuantized, RejectsBadShapes) {
  const auto m = random_quadratic_model(5, 4, 29);
  const auto qm = core::QuantizedModel::build(m, core::QuantConfig{});
  auto xs = random_batch(3, 4, 1.0, 1);
  xs[2].push_back(0.0);
  EXPECT_THROW(quantized_values(qm, xs), std::invalid_argument);
  EXPECT_TRUE(quantized_values(qm, {}).empty());
}

}  // namespace
}  // namespace svt
