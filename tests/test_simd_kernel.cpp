// Bit-exactness of the window-blocked fixed-point batch kernel against the
// per-window oracle on every engine Figure 6 sweeps (feature widths 7-17,
// coefficient widths 13/15/17, per-feature or homogeneous ranges; full
// blocks plus a ragged tail), and scratch-buffer reuse across interleaved
// models and batch sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
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

std::vector<std::vector<double>> random_batch(std::size_t nwin, std::size_t nfeat,
                                              double spread, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-spread, spread);
  std::vector<std::vector<double>> xs(nwin, std::vector<double>(nfeat));
  for (auto& row : xs)
    for (auto& v : row) v = dist(rng);
  return xs;
}

TEST(SimdKernel, FullModelBatchBitExactVsPerWindowAcrossWidths) {
  // End-to-end: dequantized_decisions routes through the window-blocked
  // packed kernel, the per-window oracle does not. Equality on every engine
  // Figure 6 sweeps proves the whole quantise -> MAC1 -> square -> MAC2
  // chain is blocking-invariant. 67 windows = four 16-window blocks plus a
  // 3-window tail. Feature scales spread over four octaves, so the Eq. 6
  // ranges differ (non-zero scale-back shifts, and homogeneous engines that
  // differ from per-feature ones), and inputs spread to +-12 against the
  // support vectors' +-2 (an Eq. 6 range of +-8), so the quantiser
  // saturates about a third of them.
  auto model = random_quadratic_model(40, 30, 7);
  auto xs = random_batch(67, 30, 12.0, 11);
  for (auto* rows : {&model.support_vectors, &xs})
    for (auto& row : *rows)
      for (std::size_t j = 0; j < row.size(); ++j)
        row[j] = std::ldexp(row[j], static_cast<int>(j % 5) - 2);
  rt::KernelScratch scratch;
  std::vector<double> batch_values;
  for (const bool homogeneous : {false, true}) {
    for (const int alpha_bits : {13, 15, 17}) {
      for (int bits = 7; bits <= 17; ++bits) {
        core::QuantConfig qc;
        qc.feature_bits = bits;
        qc.alpha_bits = alpha_bits;
        qc.homogeneous = homogeneous;
        const auto qm = core::QuantizedModel::build(model, qc);
        qm.dequantized_decisions(xs, scratch, batch_values);
        ASSERT_EQ(batch_values.size(), xs.size());
        const std::string what = std::to_string(bits) + "/" + std::to_string(alpha_bits) +
                                 (homogeneous ? " homogeneous" : " per-feature");
        for (std::size_t w = 0; w < xs.size(); ++w) {
          EXPECT_EQ(batch_values[w] >= 0.0 ? +1 : -1, core::classify(qm, xs[w])) << what;
          EXPECT_EQ(batch_values[w], core::dequantized_decision(qm, xs[w])) << what;
        }
      }
    }
  }
}

TEST(KernelScratch, ReuseAcrossModelsAndBatchSizesIsBitExact) {
  // One scratch serving interleaved models of different widths and batch
  // sizes must match a fresh scratch per call exactly.
  const auto model_a = random_quadratic_model(30, 24, 41);
  const auto model_b = random_quadratic_model(50, 12, 43);
  core::QuantConfig qc;
  const auto qa = core::QuantizedModel::build(model_a, qc);
  const auto qb = core::QuantizedModel::build(model_b, qc);
  const rt::PackedModel pa(model_a);

  const auto fresh_quantized = [](const core::QuantizedModel& qm,
                                  const std::vector<std::vector<double>>& xs) {
    rt::KernelScratch fresh;
    std::vector<double> out;
    qm.dequantized_decisions(xs, fresh, out);
    return out;
  };

  rt::KernelScratch scratch;
  std::vector<double> out;
  for (const std::size_t nwin : {std::size_t{40}, std::size_t{3}, std::size_t{17}}) {
    const auto xa = random_batch(nwin, 24, 2.0, 100 + nwin);
    const auto xb = random_batch(nwin, 12, 2.0, 200 + nwin);

    qa.dequantized_decisions(xa, scratch, out);
    EXPECT_EQ(out, fresh_quantized(qa, xa));
    qb.dequantized_decisions(xb, scratch, out);
    EXPECT_EQ(out, fresh_quantized(qb, xb));

    std::vector<double> packed_out(nwin), packed_fresh(nwin);
    pa.decision_values(xa, packed_out, scratch);
    rt::KernelScratch fresh;
    pa.decision_values(xa, packed_fresh, fresh);
    EXPECT_EQ(packed_out, packed_fresh);
  }
}

}  // namespace
}  // namespace svt
