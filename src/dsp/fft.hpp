// Radix-2 fast Fourier transform.
//
// Substrate for the power-spectral-density features (paper features 25-53,
// computed from the ECG-derived respiration series). Implemented from scratch:
// iterative in-place decimation-in-time radix-2 FFT with bit-reversal
// permutation, plus helpers for real-input spectra.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace svt::dsp {

/// True if n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n (n >= 1). Throws on n == 0.
std::size_t next_power_of_two(std::size_t n);

/// In-place forward FFT. x.size() must be a power of two. Throws otherwise.
void fft_inplace(std::vector<std::complex<double>>& x);

/// In-place inverse FFT (includes the 1/N normalisation).
void ifft_inplace(std::vector<std::complex<double>>& x);

/// Forward FFT of a real series zero-padded to the next power of two
/// (or to fft_size if given, which must be a power of two >= x.size()).
std::vector<std::complex<double>> fft_real(std::span<const double> x, std::size_t fft_size = 0);

/// One-sided magnitude-squared spectrum |X[k]|^2 for k = 0..N/2 of a real
/// series (zero-padded to a power of two). Size is N/2+1.
std::vector<double> magnitude_squared_spectrum(std::span<const double> x,
                                               std::size_t fft_size = 0);

/// Precomputed plan for repeated same-size FFTs: the bit-reversal
/// permutation plus per-stage twiddle tables. The twiddles are generated by
/// the SAME incremental recurrence (w *= wlen) the planless transform runs
/// per butterfly block, so a planned FFT is bit-identical to fft_inplace —
/// it just stops re-deriving the twiddles (and the permutation) on every
/// call, which is what the streaming feature path needs when Welch runs
/// many equal-length segments per window.
struct FftPlan {
  /// Throws std::invalid_argument unless n is a power of two.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  std::size_t n_ = 0;
  std::vector<std::size_t> bitrev_;  ///< bitrev_[i] = bit-reversed index of i.
  /// twiddles_[s][k] = wlen_s^k for stage s (len = 2^(s+1)), k < len/2.
  std::vector<std::vector<std::complex<double>>> twiddles_;
};

/// In-place forward FFT through a plan; x.size() must equal plan.size().
/// Bit-identical to fft_inplace on the same input.
void fft_inplace(std::span<std::complex<double>> x, const FftPlan& plan);

}  // namespace svt::dsp
