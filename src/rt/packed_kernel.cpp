#include "rt/packed_kernel.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "fixed/fixed_point.hpp"

namespace svt::rt {

namespace {

/// Local clamp with the exact semantics of fixed::saturate for the
/// pre-validated widths the pipeline uses; inlined here because the
/// out-of-line call is the dominant cost of the per-element hot loop.
/// Branch-free (conditional selects, not early returns): the MAC1 loop runs
/// this once per feature x window and data-dependent saturation branches
/// defeat both the predictor and vectorisation of the window-block loop.
inline std::int64_t saturate64(std::int64_t v, std::int64_t hi, std::int64_t lo) {
  v = v < lo ? lo : v;
  return v > hi ? hi : v;
}

}  // namespace

void batch_quadratic_decisions(const double* xt, std::size_t nwin, std::size_t nfeat,
                               const double* svs, std::size_t nsv, const double* alpha_y,
                               double bias, double coef0, double* out) {
  double accs[kWindowBlock];
  double dots[kWindowBlock];
  for (std::size_t w0 = 0; w0 < nwin; w0 += kWindowBlock) {
    const std::size_t nb = std::min(kWindowBlock, nwin - w0);
    std::fill(accs, accs + nb, bias);
    const double* sv_row = svs;
    for (std::size_t i = 0; i < nsv; ++i, sv_row += nfeat) {
      std::fill(dots, dots + nb, 0.0);
      for (std::size_t f = 0; f < nfeat; ++f) {
        const double svv = sv_row[f];
        const double* xrow = xt + f * nwin + w0;
        for (std::size_t b = 0; b < nb; ++b) dots[b] += xrow[b] * svv;
      }
      const double a = alpha_y[i];
      for (std::size_t b = 0; b < nb; ++b) {
        const double s = dots[b] + coef0;
        accs[b] += a * (s * s);
      }
    }
    std::copy(accs, accs + nb, out + w0);
  }
}

void batch_quantized_accumulators(const PackedQuantKernel& kernel, const std::int64_t* qxt,
                                  std::size_t nwin, __int128* out) {
  SVT_ASSERT(kernel.nfeat > 0 && kernel.nsv > 0);
  const std::int64_t mac1_hi = fixed::max_signed_value(kernel.mac1_bits);
  const std::int64_t mac1_lo = fixed::min_signed_value(kernel.mac1_bits);
  const std::int64_t kin_hi = fixed::max_signed_value(kernel.kin_bits);
  const std::int64_t kin_lo = fixed::min_signed_value(kernel.kin_bits);
  const std::int64_t kout_hi = fixed::max_signed_value(kernel.kout_bits);
  const std::int64_t kout_lo = fixed::min_signed_value(kernel.kout_bits);
  std::int64_t acc1s[kWindowBlock];
  __int128 acc2s[kWindowBlock];
  for (std::size_t w0 = 0; w0 < nwin; w0 += kWindowBlock) {
    const std::size_t nb = std::min(kWindowBlock, nwin - w0);
    std::fill(acc2s, acc2s + nb, kernel.q_bias);
    const std::int64_t* sv_row = kernel.q_svs;
    for (std::size_t i = 0; i < kernel.nsv; ++i, sv_row += kernel.nfeat) {
      // MAC1: dot product with per-feature scale-back shifts, saturating.
      std::fill(acc1s, acc1s + nb, std::int64_t{0});
      for (std::size_t f = 0; f < kernel.nfeat; ++f) {
        const std::int64_t svv = sv_row[f];
        const int shift = kernel.product_shifts[f];
        const std::int64_t* qrow = qxt + f * nwin + w0;
        for (std::size_t b = 0; b < nb; ++b)
          acc1s[b] = saturate64(acc1s[b] + ((qrow[b] * svv) >> shift), mac1_hi, mac1_lo);
      }
      const std::int64_t alpha = kernel.q_alpha_y[i];
      for (std::size_t b = 0; b < nb; ++b) {
        // +1, truncate, square, truncate, MAC2 -- same chain as the
        // per-window oracle, so results are bit-exact.
        const std::int64_t acc1 = saturate64(acc1s[b] + kernel.q_one, mac1_hi, mac1_lo);
        const std::int64_t kin =
            saturate64(acc1 >> kernel.dot_truncate_bits, kin_hi, kin_lo);
        const std::int64_t square = kin * kin;
        const std::int64_t kout =
            saturate64(square >> kernel.square_truncate_bits, kout_hi, kout_lo);
        acc2s[b] =
            fixed::saturate128(acc2s[b] + static_cast<__int128>(alpha) * kout, kernel.mac2_bits);
      }
    }
    std::copy(acc2s, acc2s + nb, out + w0);
  }
}

bool simd_kernel_enabled() { return false; }

}  // namespace svt::rt
