// Pan-Tompkins QRS (R peak) detection.
//
// The classic real-time QRS detector: band-pass (5-15 Hz) -> five-point
// derivative -> squaring -> moving-window integration -> adaptive signal and
// noise thresholds (no search-back pass). This closes the acquisition loop
// for the waveform dataset path: synthesised ECG in, beat times + R
// amplitudes out, from which the RR tachogram and the EDR series are rebuilt
// exactly as a WBSN front-end would.
#pragma once

#include <span>
#include <vector>

#include "ecg/ecg_synth.hpp"
#include "ecg/rr_model.hpp"

namespace svt::ecg {

struct QrsDetection {
  std::vector<double> r_peak_times_s;
  std::vector<double> r_amplitudes_mv;  ///< Raw-signal amplitude at each peak.

  std::size_t size() const { return r_peak_times_s.size(); }

  /// RR tachogram implied by successive R peaks (size = peaks - 1).
  RrSeries to_rr_series() const;

  /// EDR series: R amplitudes resampled to a uniform rate via linear
  /// interpolation, mean removed. Throws if fewer than 2 peaks.
  RespirationSeries to_edr(double fs_hz) const;
};

struct PanTompkinsParams {
  double bandpass_lo_hz = 5.0;
  double bandpass_hi_hz = 15.0;
  double integration_window_s = 0.150;
  double refractory_s = 0.200;  ///< Minimum spacing between QRS complexes.
  double learning_s = 2.0;      ///< Initial threshold-learning period.
};

/// Run Pan-Tompkins detection over a waveform. Throws std::invalid_argument
/// on an empty waveform or non-positive sampling rate.
QrsDetection detect_qrs(const EcgWaveform& ecg, const PanTompkinsParams& params = {});

}  // namespace svt::ecg
