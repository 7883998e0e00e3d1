// Second-order IIR sections for the Pan-Tompkins band-pass.
//
// ecg::LaneQrsDetector takes its high-pass and low-pass coefficients from
// the Butterworth designs below and steps them in its own lane kernel; the
// scalar test oracles (tests/support) run the same sections through
// Biquad::process. Both evaluate the direct-form-I recurrence in the same
// order, which is what keeps the lanes bit-identical to the oracles.
#pragma once

namespace svt::dsp {

/// Second-order IIR section (biquad), direct form I.
/// y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2].
class Biquad {
 public:
  Biquad() = default;
  Biquad(double b0, double b1, double b2, double a1, double a2);

  /// Process one sample, updating internal state. Inline: the streaming QRS
  /// detector runs two of these per raw sample, where an out-of-line call
  /// would dominate the per-sample cost.
  double process(double x) {
    const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
    x2_ = x1_;
    x1_ = x;
    y2_ = y1_;
    y1_ = y;
    return y;
  }

  /// Reset internal state to zero.
  void reset();

  double b0() const { return b0_; }
  double b1() const { return b1_; }
  double b2() const { return b2_; }
  double a1() const { return a1_; }
  double a2() const { return a2_; }

 private:
  double b0_ = 1.0, b1_ = 0.0, b2_ = 0.0;
  double a1_ = 0.0, a2_ = 0.0;
  double x1_ = 0.0, x2_ = 0.0, y1_ = 0.0, y2_ = 0.0;
};

/// Butterworth 2nd-order low-pass biquad (bilinear transform).
/// Throws if cutoff_hz <= 0 or cutoff_hz >= fs_hz/2.
Biquad butterworth_lowpass(double cutoff_hz, double fs_hz);

/// Butterworth 2nd-order high-pass biquad.
Biquad butterworth_highpass(double cutoff_hz, double fs_hz);

}  // namespace svt::dsp
