// Low-level batched quadratic-kernel evaluation over flat (packed) arrays.
//
// These are the compute primitives of the streaming runtime: the support-
// vector table lives in one contiguous row-major block and a *batch* of
// feature vectors is evaluated per call, blocked so that each SV row is
// streamed through the cache once per window block instead of once per
// window. Per-window arithmetic order is identical to the per-window
// references, so results match them: the fixed-point oracle
// (tests/support/quantized_oracle.hpp) bit for bit, and
// svm::SvmModel::decision_value to rounding of `pow(s,2)` vs `s*s`.
//
// The fixed-point kernel is the library's one integer engine: the serving
// engines and the paper's figures classify through it. It is one portable,
// branch-free loop: saturation is a pair of conditional selects, so the
// compiler is free to vectorise the window-block loop, and its bits match
// the oracle across Figure 6's feature and coefficient widths, homogeneous
// or not (asserted by tests/test_simd_kernel.cpp).
//
// This header is a leaf (its source depends only on svt::fixed), so the
// fixed-point core (core::QuantizedModel) and the packed float model
// (rt::PackedModel) both run their one batch entry point through it without
// a dependency cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace svt::rt {

/// Number of windows evaluated together in the blocked kernels. Sized so a
/// block of accumulators and partial dot products stays in registers/L1.
inline constexpr std::size_t kWindowBlock = 16;

/// Reusable buffers for the batch classification hot loop: the
/// feature-major float batch, the quantised feature-major batch, and the
/// MAC2 accumulators. Callers that classify repeatedly (the serving
/// engines) keep one per worker so the per-batch transpose/quantise staging
/// allocates nothing once warm. Not thread-safe; carries no model or
/// patient state.
struct KernelScratch {
  std::vector<double> xt;
  std::vector<std::int64_t> qxt;
  std::vector<__int128> accs;
};

/// Batched float decision values of a quadratic-polynomial SVM:
///   out[w] = bias + sum_i alpha_y[i] * (x_w . sv_i + coef0)^2
/// `xt` is the batch in feature-major layout (xt[f * nwin + w]: the
/// innermost per-window loop is unit stride, which lets it vectorise), `svs`
/// the row-major nsv x nfeat SV matrix. Per-window accumulation order matches
/// SvmModel::decision_value (SVs in order, features in order).
void batch_quadratic_decisions(const double* xt, std::size_t nwin, std::size_t nfeat,
                               const double* svs, std::size_t nsv, const double* alpha_y,
                               double bias, double coef0, double* out);

/// Fixed-point pipeline description for the batched integer kernel, as
/// core::QuantizedModel::kernel() builds it: MAC1 with per-feature
/// scale-back shifts -> +1 -> truncate -> square -> truncate -> MAC2, every
/// stage saturating to its width. All pointers are borrowed.
/// Contract: q_svs and the quantised inputs are Dbits integers with
/// Dbits <= 20 (enforced by QuantizedModel::build), so products fit 32x32
/// signed multiplies.
struct PackedQuantKernel {
  std::size_t nfeat = 0;
  std::size_t nsv = 0;
  const std::int64_t* q_svs = nullptr;      ///< nsv x nfeat, row-major.
  const std::int64_t* q_alpha_y = nullptr;  ///< nsv.
  const int* product_shifts = nullptr;      ///< nfeat scale-back shifts.
  std::int64_t q_one = 0;                   ///< Kernel's +1 at the MAC1 scale.
  __int128 q_bias = 0;                      ///< Bias at the MAC2 scale.
  int mac1_bits = 0;
  int kin_bits = 0;
  int kout_bits = 0;
  int mac2_bits = 0;
  int dot_truncate_bits = 0;
  int square_truncate_bits = 0;
};

/// Batched integer decision accumulators (sign = class), bit-exact with the
/// per-window oracle. `qxt` is the quantised batch in feature-major layout.
void batch_quantized_accumulators(const PackedQuantKernel& kernel, const std::int64_t* qxt,
                                  std::size_t nwin, __int128* out);

/// Always false: the fixed-point kernel has no explicitly vectorised path.
/// Kept only because the wardbench build fingerprint prints it.
bool simd_kernel_enabled();

}  // namespace svt::rt
