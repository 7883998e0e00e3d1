// Bit-exactness of the window-blocked fixed-point batch kernel against the
// per-window QuantizedModel across feature widths 8-16 (full blocks plus a
// ragged tail), the tiled transpose against the naive permutation, and
// scratch-buffer reuse across interleaved models and batch sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "core/quantize.hpp"
#include "rt/packed_kernel.hpp"
#include "rt/packed_model.hpp"
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
  // End-to-end: classify_batch routes through the window-blocked packed
  // kernel, the per-window engine does not. Equality at every width proves
  // the whole quantise -> MAC1 -> square -> MAC2 chain is blocking-invariant.
  // 67 windows = four 16-window blocks plus a 3-window tail, with inputs
  // spread past the support vectors' +-2 (still inside the model's
  // power-of-two ranges, so no stage saturates).
  const auto model = random_quadratic_model(40, 30, 7);
  const auto xs = random_batch(67, 30, 3.0, 11);
  for (int bits = 8; bits <= 16; ++bits) {
    core::QuantConfig qc;
    qc.feature_bits = bits;
    const auto qm = core::QuantizedModel::build(model, qc);
    const auto batch_labels = qm.classify_batch(xs);
    const auto batch_values = qm.dequantized_decisions(xs);
    for (std::size_t w = 0; w < xs.size(); ++w) {
      EXPECT_EQ(batch_labels[w], qm.classify(xs[w])) << "width " << bits;
      EXPECT_EQ(batch_values[w], qm.dequantized_decision(xs[w])) << "width " << bits;
    }
  }
}

TEST(SimdKernel, TiledTransposeMatchesNaive) {
  // Extents straddling the tile size (32), including non-multiples.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {1, 1}, {7, 53}, {32, 32}, {33, 31}, {100, 64}, {129, 97}};
  for (const auto& [nwin, nfeat] : shapes) {
    std::mt19937_64 rng(nwin * 1000 + nfeat);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> in(nwin * nfeat);
    for (auto& v : in) v = dist(rng);
    std::vector<double> tiled(in.size()), naive(in.size());
    rt::transpose_batch(in.data(), nwin, nfeat, tiled.data());
    for (std::size_t w = 0; w < nwin; ++w)
      for (std::size_t f = 0; f < nfeat; ++f) naive[f * nwin + w] = in[w * nfeat + f];
    EXPECT_EQ(tiled, naive) << nwin << "x" << nfeat;
  }
}

TEST(KernelScratch, ReuseAcrossModelsAndBatchSizesIsBitExact) {
  // One scratch serving interleaved models of different widths and batch
  // sizes must match the allocating entry points exactly.
  const auto model_a = random_quadratic_model(30, 24, 41);
  const auto model_b = random_quadratic_model(50, 12, 43);
  core::QuantConfig qc;
  const auto qa = core::QuantizedModel::build(model_a, qc);
  const auto qb = core::QuantizedModel::build(model_b, qc);
  const rt::PackedModel pa(model_a);

  rt::KernelScratch scratch;
  std::vector<double> out;
  for (const std::size_t nwin : {std::size_t{40}, std::size_t{3}, std::size_t{17}}) {
    const auto xa = random_batch(nwin, 24, 2.0, 100 + nwin);
    const auto xb = random_batch(nwin, 12, 2.0, 200 + nwin);

    qa.dequantized_decisions(xa, scratch, out);
    EXPECT_EQ(out, qa.dequantized_decisions(xa));
    qb.dequantized_decisions(xb, scratch, out);
    EXPECT_EQ(out, qb.dequantized_decisions(xb));

    std::vector<double> packed_out(nwin);
    pa.decision_values(xa, packed_out, scratch);
    EXPECT_EQ(packed_out, pa.decision_values(xa));
  }
}

}  // namespace
}  // namespace svt
