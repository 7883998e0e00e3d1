// Auto-regressive (AR) model estimation.
//
// The paper's AR feature group (features 16-24) consists of the linear
// coefficients of an auto-regressive model of the ECG-derived respiration
// time series. We provide both classic estimators:
//  * autocorrelation method solved with Levinson-Durbin recursion, and
//  * Burg's method (forward/backward prediction-error minimisation), which
//    fits two series at once in SIMD lanes,
// plus the model's parametric spectrum for validation.
//
// Convention: x[n] = sum_{k=1..p} a[k] * x[n-k] + e[n]; coefficients() returns
// [a1..ap]. The prediction-error (driving noise) variance is also reported.
#pragma once

#include <array>
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

/// Workspace for ar_burg: both lanes' forward/backward prediction errors
/// and coefficients, lane-interleaved (element 2 * i + lane), plus the two
/// fitted models. Allocation-free once warm.
struct BurgScratch {
  std::vector<double> f, b, a, prev;
  std::array<ArModel, 2> model;  ///< model[l]: the fit of lane l's series.
};

/// AR estimation by Burg's method, two equal-length series in lockstep:
/// lane l fits x0 (l = 0) or x1 (l = 1), and its model lands in
/// scratch.model[l] (coefficients sized `order`, capacity reused). Each lane
/// runs the scalar recursion's operations in the scalar order (mean
/// removal, the reflection sums, the step-up and error updates), so each
/// model is bit-identical to fitting its series alone; the lanes share one
/// SSE2 instruction per step on x86-64, and run the same loop in plain C++
/// elsewhere. The recursion is bound by its serial sums, so a second series
/// costs little more than the first. A lone series runs in both lanes
/// (pass it twice). A constant series gets the all-zero model with zero
/// noise variance. Throws if the lengths differ, x0.size() <= order or
/// order == 0.
void ar_burg(std::span<const double> x0, std::span<const double> x1, std::size_t order,
             BurgScratch& scratch);

}  // namespace svt::dsp
