// A dsp::Biquad with its direct-form-I state: the scalar section both test
// oracles step, one sample at a time, in the arithmetic order the lane
// kernel (ecg::LaneQrsDetector) uses.
#pragma once

#include "dsp/filter.hpp"

namespace svt::dsp {

class BiquadFilter {
 public:
  BiquadFilter() = default;
  explicit BiquadFilter(const Biquad& coeffs) : c_(coeffs) {}

  /// Process one sample, updating the state. Inline: the streaming oracle
  /// runs two of these per raw sample.
  double process(double x) {
    const double y = c_.b0 * x + c_.b1 * x1_ + c_.b2 * x2_ - c_.a1 * y1_ - c_.a2 * y2_;
    x2_ = x1_;
    x1_ = x;
    y2_ = y1_;
    y1_ = y;
    return y;
  }

  /// Reset the state to zero.
  void reset() { x1_ = x2_ = y1_ = y2_ = 0.0; }

 private:
  Biquad c_;
  double x1_ = 0.0, x2_ = 0.0, y1_ = 0.0, y2_ = 0.0;
};

}  // namespace svt::dsp
