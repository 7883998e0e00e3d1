// Auto-regressive (AR) model estimation.
//
// The paper's AR feature group (features 16-24) consists of the linear
// coefficients of an auto-regressive model of the ECG-derived respiration
// time series. We provide both classic estimators:
//  * autocorrelation method solved with Levinson-Durbin recursion, and
//  * Burg's method (forward/backward prediction-error minimisation),
// plus the model's parametric spectrum for validation.
//
// Convention: x[n] = sum_{k=1..p} a[k] * x[n-k] + e[n]; coefficients() returns
// [a1..ap]. The prediction-error (driving noise) variance is also reported.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace svt::dsp {

struct ArModel {
  std::vector<double> coefficients;  ///< a1..ap (predictor form, see header).
  double noise_variance = 0.0;       ///< Final prediction-error variance.

  std::size_t order() const { return coefficients.size(); }

  /// Parametric one-sided PSD of the model at the given frequencies,
  /// for a sampling rate fs_hz: sigma^2 / (fs * |1 - sum a_k e^{-j w k}|^2),
  /// doubled for one-sidedness.
  std::vector<double> spectrum(std::span<const double> frequencies_hz, double fs_hz) const;
};

/// Levinson-Durbin recursion on an autocorrelation sequence r[0..p].
/// Throws if r has fewer than order+1 entries or r[0] <= 0.
ArModel levinson_durbin(std::span<const double> autocorr, std::size_t order);

/// AR estimation by the autocorrelation (Yule-Walker) method.
/// Throws if x.size() <= order or order == 0.
ArModel ar_yule_walker(std::span<const double> x, std::size_t order);

/// AR estimation by Burg's method. Throws if x.size() <= order or order == 0.
ArModel ar_burg(std::span<const double> x, std::size_t order);

/// Reusable workspace for the scratch Burg path (forward/backward error
/// series, coefficient vectors). Allocation-free once warm.
struct BurgScratch {
  std::vector<double> centred, f, b, a, prev;
  double noise_variance = 0.0;
};

/// Scratch variant of ar_burg: coefficients land in scratch.a (size =
/// order) and the prediction-error variance in scratch.noise_variance.
/// Bit-identical to ar_burg — the allocating overload delegates here.
void ar_burg(std::span<const double> x, std::size_t order, BurgScratch& scratch);

}  // namespace svt::dsp
