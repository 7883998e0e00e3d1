#include "fixed/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace svt::fixed {
namespace {

TEST(FixedPoint, SignedBounds) {
  EXPECT_EQ(max_signed_value(8), 127);
  EXPECT_EQ(min_signed_value(8), -128);
  EXPECT_EQ(max_signed_value(2), 1);
  EXPECT_EQ(min_signed_value(2), -2);
  EXPECT_THROW(max_signed_value(1), std::invalid_argument);
  EXPECT_THROW(max_signed_value(64), std::invalid_argument);
}

TEST(FixedPoint, SaturateClamps) {
  EXPECT_EQ(saturate(200, 8), 127);
  EXPECT_EQ(saturate(-200, 8), -128);
  EXPECT_EQ(saturate(100, 8), 100);
}

TEST(FixedPoint, TruncateLsbsIsArithmeticShift) {
  EXPECT_EQ(truncate_lsbs(1024, 4), 64);
  EXPECT_EQ(truncate_lsbs(-1, 4), -1);    // Rounds toward negative infinity.
  EXPECT_EQ(truncate_lsbs(-17, 4), -2);   // -17/16 floored.
  EXPECT_EQ(truncate_lsbs(5, 0), 5);
  EXPECT_THROW(truncate_lsbs(1, -1), std::invalid_argument);
  EXPECT_THROW(truncate_lsbs(1, 63), std::invalid_argument);
}

TEST(QuantFormat, LsbWeight) {
  QuantFormat fmt{9, 3};  // 9 bits covering +-8.
  EXPECT_DOUBLE_EQ(fmt.lsb(), std::ldexp(1.0, 3 - 8));
  EXPECT_NEAR(fmt.dequantize(max_signed_value(9)), 8.0, 2.0 * fmt.lsb());
}

TEST(QuantFormat, QuantizeDequantizeRoundTrip) {
  QuantFormat fmt{12, 2};
  for (double v : {-3.9, -1.0, -0.123, 0.0, 0.5, 1.7, 3.9}) {
    const auto q = fmt.quantize(v);
    EXPECT_NEAR(fmt.dequantize(q), v, fmt.lsb() / 2.0 + 1e-15);
  }
}

TEST(QuantFormat, SaturatesOutOfRange) {
  QuantFormat fmt{8, 0};  // +-1 range.
  EXPECT_EQ(fmt.quantize(100.0), max_signed_value(8));
  EXPECT_EQ(fmt.quantize(-100.0), min_signed_value(8));
  EXPECT_EQ(fmt.quantize(std::nan("")), 0);
}

TEST(QuantFormat, Validate) {
  QuantFormat bad{1, 0};
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

// Property sweep over widths: quantisation error bounded by lsb/2 inside the
// representable range, and quantize is monotone.
class QuantFormatProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuantFormatProperty, ErrorBoundedAndMonotone) {
  const int bits = GetParam();
  QuantFormat fmt{bits, 1};  // +-2 range.
  std::mt19937_64 rng(static_cast<unsigned>(bits));
  // Stay inside the representable range: beyond its largest value the
  // quantiser saturates by design and the lsb/2 bound does not apply.
  const double span = fmt.dequantize(max_signed_value(bits)) - fmt.lsb();
  std::uniform_real_distribution<double> uni(-span, span);
  double prev_v = -2.0;
  std::int64_t prev_q = fmt.quantize(prev_v);
  for (int i = 0; i < 200; ++i) {
    const double v = uni(rng);
    const auto q = fmt.quantize(v);
    EXPECT_LE(std::abs(fmt.dequantize(q) - v), fmt.lsb() / 2.0 + 1e-15);
    EXPECT_GE(q, min_signed_value(bits));
    EXPECT_LE(q, max_signed_value(bits));
  }
  // Monotonicity on a grid.
  for (double v = -2.2; v <= 2.2; v += 0.01) {
    const auto q = fmt.quantize(v);
    EXPECT_GE(q, prev_q);
    prev_q = q;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantFormatProperty,
                         ::testing::Values(4, 7, 9, 12, 15, 17, 24, 32));

}  // namespace
}  // namespace svt::fixed
