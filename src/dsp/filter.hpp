// Second-order IIR sections for the Pan-Tompkins band-pass.
//
// ecg::LaneQrsDetector takes its high-pass and low-pass coefficients from
// the Butterworth designs below and steps them in its own lane kernel; the
// scalar test oracles (tests/support) step the same coefficients through
// their own stateful section. Both evaluate the direct-form-I recurrence in
// the same order, which is what keeps the lanes bit-identical to the
// oracles.
#pragma once

namespace svt::dsp {

/// Coefficients of a second-order IIR section (biquad), direct form I:
/// y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2].
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// Butterworth 2nd-order low-pass biquad (bilinear transform).
/// Throws if cutoff_hz <= 0 or cutoff_hz >= fs_hz/2.
Biquad butterworth_lowpass(double cutoff_hz, double fs_hz);

/// Butterworth 2nd-order high-pass biquad.
Biquad butterworth_highpass(double cutoff_hz, double fs_hz);

}  // namespace svt::dsp
