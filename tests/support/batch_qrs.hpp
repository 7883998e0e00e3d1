// Batch Pan-Tompkins QRS detection over a whole record: the test oracle.
//
// Test-only. Serving runs ecg::LaneQrsDetector; the scalar
// StreamingQrsDetector (support/streaming_qrs.hpp) each lane is proven
// against is itself proven bit-identical to this detector over whole
// records (tests/test_streaming_qrs.cpp). Three implementations of one
// chain, each checking the next: this one states the algorithm as whole-
// series stages, with nothing streaming about it.
//
// The classic chain: band-pass (5-15 Hz) -> five-point derivative ->
// squaring -> moving-window integration -> adaptive signal and noise
// thresholds (no search-back pass), then the R peak is located in the raw
// signal near each integrator peak.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/filter.hpp"
#include "ecg/ecg_synth.hpp"
#include "ecg/lane_qrs.hpp"

namespace svt::dsp {

/// Filter a whole series through `biquad` from zero state.
std::vector<double> filter(const Biquad& biquad, std::span<const double> x);

/// Band-pass as a high-pass/low-pass cascade. Throws unless
/// 0 < lo_hz < hi_hz < fs_hz/2.
std::vector<double> bandpass_filter(std::span<const double> x, double lo_hz, double hi_hz,
                                    double fs_hz);

/// Five-point derivative used by Pan-Tompkins:
/// y[n] = (2x[n] + x[n-1] - x[n-3] - 2x[n-4]) / 8 (scaled by fs); indices
/// before the first sample clamp to it. Throws if fs_hz <= 0.
std::vector<double> five_point_derivative(std::span<const double> x, double fs_hz);

/// Moving-window integration (rectangular, trailing) of given length in
/// samples; the leading samples average over the shorter window seen so
/// far. Throws if window == 0.
std::vector<double> moving_window_integrate(std::span<const double> x, std::size_t window);

}  // namespace svt::dsp

namespace svt::ecg {

struct QrsDetection {
  std::vector<double> r_peak_times_s;
  std::vector<double> r_amplitudes_mv;  ///< Raw-signal amplitude at each peak.

  std::size_t size() const { return r_peak_times_s.size(); }
};

/// Run Pan-Tompkins detection over a waveform. Throws std::invalid_argument
/// on an empty waveform or non-positive sampling rate.
QrsDetection detect_qrs(const EcgWaveform& ecg, const PanTompkinsParams& params = {});

}  // namespace svt::ecg
