// Power spectral density estimation (Welch's method; one undetrended segment
// spanning the series is the plain periodogram) and band-power utilities.
//
// The paper's PSD feature group (features 25-53) is the spectral density of
// the ECG-derived respiration series "in various bands"; this module provides
// the Welch estimator and band integration those features are built on.
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"

namespace svt::dsp {

/// A one-sided PSD estimate: power[k] corresponds to frequency_hz[k].
/// frequency_hz ascends (every producer writes df * k), which is what lets
/// band_power and peak_frequency find a band's bins by binary search.
struct PsdEstimate {
  std::vector<double> frequency_hz;  ///< Ascending bin frequencies [Hz].
  std::vector<double> power;         ///< Units: input^2 / Hz.

  /// Frequency resolution (spacing between bins) in Hz.
  double resolution_hz() const;
};

/// Parameters for Welch's averaged-periodogram method.
struct WelchParams {
  std::size_t segment_length = 256;   ///< Samples per segment.
  double overlap_fraction = 0.5;      ///< In [0,1); 0.5 = 50% overlap.
  WindowType window = WindowType::kHann;
  bool detrend_segments = true;       ///< Remove per-segment mean.
};

/// Welch PSD estimate. If the series is shorter than one segment, falls back
/// to a single periodogram over the whole series. Throws on empty input,
/// fs_hz <= 0, segment_length == 0 or overlap outside [0,1).
PsdEstimate welch_psd(std::span<const double> x, double fs_hz, const WelchParams& params = {});

/// Reusable workspace for the scratch Welch path: segment copy, cached
/// taper, FFT buffer and FFT plan. Allocation-free once warm: every buffer
/// keeps its capacity between calls, and the taper and the plan are rebuilt
/// only when the segment length changes (a scratch serving one stream
/// geometry sees one length).
struct SpectralScratch {
  std::vector<double> segment;
  std::vector<double> window;  ///< Cached taper for (window_type, window_len).
  WindowType window_type = WindowType::kHann;
  std::size_t window_len = 0;
  std::vector<std::complex<double>> fft_buf;
  std::optional<FftPlan> plan;  ///< Plan for the last FFT length.
};

/// Scratch variant of welch_psd: the estimate lands in `out` (resized;
/// capacity reused across calls). Same validation rules and bit-identical
/// results — the allocating overload above delegates here.
void welch_psd(std::span<const double> x, double fs_hz, const WelchParams& params,
               SpectralScratch& scratch, PsdEstimate& out);

/// One Welch segment's one-sided PSD, exactly as one iteration of the
/// welch_psd averaging loop computes it: copy x into the scratch segment
/// buffer, remove the per-segment mean when params.detrend_segments, taper
/// with the params window (cached in the scratch), FFT zero-padded to
/// next_power_of_two(x.size()) and normalise per bin. `power` is resized to
/// nfft/2+1. The caller owns segmentation: x IS the segment, whatever
/// params.segment_length says. This is the building block the streaming
/// segment cache memoizes — averaging k such vectors bin-wise in segment
/// order and dividing by k reproduces welch_psd bit-for-bit (shared
/// implementation, same accumulation order).
void welch_segment_psd(std::span<const double> x, double fs_hz, const WelchParams& params,
                       SpectralScratch& scratch, std::vector<double>& power);

/// Integrated power in [f_lo, f_hi) via trapezoid-free bin summation
/// (power * resolution for bins whose centre falls in the band).
/// Throws if f_hi < f_lo. Visits only the band's run of bins, found by
/// binary search with the comparisons a full scan would make (f >= f_lo,
/// f < f_hi), so it adds the same terms in the same order as that scan.
double band_power(const PsdEstimate& psd, double f_lo, double f_hi);

/// Total power over the whole estimate.
double total_power(const PsdEstimate& psd);

/// Frequency of the largest PSD bin within [f_lo, f_hi) (the first one on a
/// tie). Returns f_lo if the band contains no bins. Visits only the band's
/// run of bins, like band_power.
double peak_frequency(const PsdEstimate& psd, double f_lo, double f_hi);

/// Spectral edge frequency: smallest f such that the cumulative power up to f
/// reaches `fraction` (in (0,1]) of the total power.
double spectral_edge_frequency(const PsdEstimate& psd, double fraction);

}  // namespace svt::dsp
