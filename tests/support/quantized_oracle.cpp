#include "support/quantized_oracle.hpp"

#include <stdexcept>

#include "fixed/fixed_point.hpp"
#include "rt/packed_kernel.hpp"

namespace svt::core {

std::vector<std::int64_t> quantize_input(const QuantizedModel& model, std::span<const double> x) {
  if (x.size() != model.num_features())
    throw std::invalid_argument("QuantizedModel: feature-count mismatch");
  std::vector<std::int64_t> qx(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    const fixed::QuantFormat fmt{model.config().feature_bits, model.feature_ranges()[j]};
    qx[j] = fmt.quantize(x[j]);
  }
  return qx;
}

__int128 decision_accumulator(const QuantizedModel& model, std::span<const std::int64_t> qx) {
  const rt::PackedQuantKernel k = model.kernel();
  __int128 acc2 = k.q_bias;
  for (std::size_t i = 0; i < k.nsv; ++i) {
    const std::int64_t* qsv = k.q_svs + i * k.nfeat;
    // MAC1: dot product with per-feature scale-back shifts, saturating.
    std::int64_t acc1 = 0;
    for (std::size_t j = 0; j < k.nfeat; ++j) {
      const std::int64_t product = qx[j] * qsv[j];  // <= 2^(2*Dbits-2): fits easily.
      acc1 = fixed::saturate(acc1 + (product >> k.product_shifts[j]), k.mac1_bits);
    }
    acc1 = fixed::saturate(acc1 + k.q_one, k.mac1_bits);

    // Truncate, square, truncate.
    const std::int64_t kin = fixed::saturate(acc1 >> k.dot_truncate_bits, k.kin_bits);
    const std::int64_t square = kin * kin;  // kin <= 31 bits: exact in int64.
    const std::int64_t kout = fixed::saturate(square >> k.square_truncate_bits, k.kout_bits);

    // MAC2: alpha_y-weighted accumulation (int128: product can exceed 63 bits).
    const __int128 term = static_cast<__int128>(k.q_alpha_y[i]) * kout;
    acc2 = fixed::saturate128(acc2 + term, k.mac2_bits);
  }
  return acc2;
}

int classify(const QuantizedModel& model, std::span<const double> x) {
  return decision_accumulator(model, quantize_input(model, x)) >= 0 ? +1 : -1;
}

double dequantized_decision(const QuantizedModel& model, std::span<const double> x) {
  return static_cast<double>(decision_accumulator(model, quantize_input(model, x))) *
         model.mac2_lsb();
}

}  // namespace svt::core
