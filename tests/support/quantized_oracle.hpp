// The per-window fixed-point pipeline of a QuantizedModel: the test oracle.
//
// Test-only. The library has one integer engine, the window-blocked
// rt::batch_quantized_accumulators behind QuantizedModel::
// dequantized_decisions, which the serving engines and the paper's figures
// both classify through. This is its scalar reference, one window and one
// stage at a time with fixed::saturate / saturate128 (the kernel inlines its
// own clamps), over the model's own integers (QuantizedModel::kernel()).
// The parity suites compare the two with EXPECT_EQ: the same integer
// accumulator, scaled by the same MAC2 LSB.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/quantize.hpp"

namespace svt::core {

/// Quantise a feature vector into the model's Dbits integers (per-feature
/// Eq. 6 ranges, saturating). Throws std::invalid_argument on dimension
/// mismatch.
std::vector<std::int64_t> quantize_input(const QuantizedModel& model, std::span<const double> x);

/// The integer decision accumulator of quantised inputs (sign = class):
/// MAC1 with scale-back shifts, +1, truncate, square, truncate, MAC2.
__int128 decision_accumulator(const QuantizedModel& model, std::span<const std::int64_t> qx);

/// The class of a feature vector: +1 when its accumulator is >= 0, else -1.
int classify(const QuantizedModel& model, std::span<const double> x);

/// The accumulator scaled by the MAC2 LSB: what dequantized_decisions
/// returns for this window.
double dequantized_decision(const QuantizedModel& model, std::span<const double> x);

}  // namespace svt::core
