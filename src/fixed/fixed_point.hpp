// Runtime-parameterised fixed-point arithmetic.
//
// The paper's third optimisation axis ("Reducing bitwidths", Section III)
// replaces floating point with narrow two's-complement fixed point:
//  * features use Dbits with a per-feature power-of-two range [-2^Rj, 2^Rj],
//  * alpha*y coefficients (bounded in [-1,1] by construction) use Abits,
//  * the 10 least-significant bits are discarded after the dot product and
//    after the square operator,
//  * out-of-range values saturate to the admissible extremes.
//
// This module provides the bit-exact integer primitives that the quantised
// inference engine (svt::core::QuantizedModel) is built from. Widths are
// runtime values (not template parameters) because the paper's exploration
// sweeps them continuously; all storage is int64 and every operation states
// the logical width of its result.
#pragma once

#include <cstdint>
#include <string>

namespace svt::fixed {

/// Maximum representable value of a signed two's-complement number of the
/// given width (2..63 supported). Throws std::invalid_argument otherwise.
std::int64_t max_signed_value(int bits);

/// Minimum representable value (symmetric check helper): -2^(bits-1).
std::int64_t min_signed_value(int bits);

/// Saturate v into the signed range of `bits` bits.
std::int64_t saturate(std::int64_t v, int bits);

/// Saturate a 128-bit value into `bits` signed bits (bits in [2,126]): the
/// MAC2-accumulator primitive shared by the per-window and batched
/// fixed-point engines, which must stay bit-identical.
__int128 saturate128(__int128 v, int bits);

/// Arithmetic shift right discarding the low `shift` bits (truncation toward
/// negative infinity, which is what dropping LSBs of a two's-complement value
/// in hardware does). shift in [0,62].
std::int64_t truncate_lsbs(std::int64_t v, int shift);

/// Decimal text of a signed 128-bit value (the MAC2 accumulator / bias scale
/// exceeds int64; model persistence writes it through these).
std::string to_string_int128(__int128 v);

/// Parse the decimal text produced by to_string_int128. Throws
/// std::invalid_argument on malformed input or overflow.
__int128 parse_int128(const std::string& text);

/// Describes a uniform quantiser mapping reals in [-2^range_log2, 2^range_log2)
/// to `bits`-bit signed integers. The LSB weighs 2^(range_log2 - bits + 1):
/// the top magnitude bit of the integer corresponds to 2^(range_log2).
struct QuantFormat {
  int bits = 16;        ///< Total signed width.
  int range_log2 = 0;   ///< R: values saturate to +/- 2^R.

  /// Real weight of one integer LSB.
  double lsb() const;

  /// Quantise a real value: scale, round-to-nearest, saturate.
  std::int64_t quantize(double v) const;

  /// Reconstruct the real value of a quantised integer.
  double dequantize(std::int64_t q) const;

  bool operator==(const QuantFormat&) const = default;
};

/// Validate a format (bits in [2,63]); throws std::invalid_argument if bad.
void validate(const QuantFormat& fmt);

}  // namespace svt::fixed
