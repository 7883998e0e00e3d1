#include "fixed/fixed_point.hpp"

#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

namespace svt::fixed {

namespace {

void require_width(int bits, const char* what) {
  if (bits < 2 || bits > 63)
    throw std::invalid_argument(std::string(what) + ": bits must be in [2,63]");
}

}  // namespace

std::int64_t max_signed_value(int bits) {
  require_width(bits, "max_signed_value");
  return (std::int64_t{1} << (bits - 1)) - 1;
}

std::int64_t min_signed_value(int bits) {
  require_width(bits, "min_signed_value");
  return -(std::int64_t{1} << (bits - 1));
}

std::int64_t saturate(std::int64_t v, int bits) {
  const std::int64_t hi = max_signed_value(bits);
  const std::int64_t lo = -hi - 1;
  // Branch-free clamp: two conditional selects lower to cmov / vector
  // min-max instead of branches, so a saturating inner loop keeps its
  // throughput even when saturation events are data-dependent noise to the
  // branch predictor (they are: this is the fixed-point batch-path
  // bottleneck the ROADMAP names).
  v = v < lo ? lo : v;
  return v > hi ? hi : v;
}

__int128 saturate128(__int128 v, int bits) {
  SVT_ASSERT(bits >= 2 && bits <= 126);
  const __int128 hi = ((__int128)1 << (bits - 1)) - 1;
  const __int128 lo = -hi - 1;
  // Same branch-free select form as saturate(); v is unchanged when in range.
  v = v < lo ? lo : v;
  return v > hi ? hi : v;
}

std::int64_t truncate_lsbs(std::int64_t v, int shift) {
  if (shift < 0 || shift > 62) throw std::invalid_argument("truncate_lsbs: shift outside [0,62]");
  return v >> shift;  // Arithmetic shift: implementation-defined pre-C++20, defined in C++20.
}

std::string to_string_int128(__int128 v) {
  if (v == 0) return "0";
  const bool negative = v < 0;
  // Negate digit-by-digit via unsigned magnitude so INT128_MIN is handled.
  unsigned __int128 mag =
      negative ? -static_cast<unsigned __int128>(v) : static_cast<unsigned __int128>(v);
  std::string digits;
  while (mag != 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(mag % 10)));
    mag /= 10;
  }
  if (negative) digits.push_back('-');
  return std::string(digits.rbegin(), digits.rend());
}

__int128 parse_int128(const std::string& text) {
  std::size_t i = 0;
  bool negative = false;
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) throw std::invalid_argument("parse_int128: no digits");
  constexpr unsigned __int128 kMax = ~static_cast<unsigned __int128>(0) >> 1;  // 2^127 - 1.
  const unsigned __int128 limit = negative ? kMax + 1 : kMax;
  unsigned __int128 mag = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') throw std::invalid_argument("parse_int128: bad digit");
    const unsigned digit = static_cast<unsigned>(c - '0');
    if (mag > (limit - digit) / 10) throw std::invalid_argument("parse_int128: overflow");
    mag = mag * 10 + digit;
  }
  if (mag == 0) return 0;
  if (negative) return -static_cast<__int128>(mag - 1) - 1;  // Reaches INT128_MIN safely.
  return static_cast<__int128>(mag);
}

double QuantFormat::lsb() const {
  return std::ldexp(1.0, range_log2 - bits + 1);
}

std::int64_t QuantFormat::quantize(double v) const {
  validate(*this);
  const double scaled = v / lsb();
  if (std::isnan(scaled)) return 0;
  // Round to nearest, then saturate to the signed width.
  double r = std::nearbyint(scaled);
  const auto hi = static_cast<double>(max_signed_value(bits));
  const auto lo = static_cast<double>(min_signed_value(bits));
  if (r > hi) r = hi;
  if (r < lo) r = lo;
  return static_cast<std::int64_t>(r);
}

double QuantFormat::dequantize(std::int64_t q) const {
  validate(*this);
  return static_cast<double>(q) * lsb();
}

void validate(const QuantFormat& fmt) {
  if (fmt.bits < 2 || fmt.bits > 63)
    throw std::invalid_argument("QuantFormat: bits must be in [2,63]");
}

}  // namespace svt::fixed
