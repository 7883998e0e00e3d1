#include "dsp/ar_model.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#endif

#include "dsp/statistics.hpp"

namespace svt::dsp {

std::vector<double> ArModel::spectrum(std::span<const double> frequencies_hz, double fs_hz) const {
  if (fs_hz <= 0.0) throw std::invalid_argument("ArModel::spectrum: fs_hz <= 0");
  std::vector<double> psd(frequencies_hz.size());
  for (std::size_t i = 0; i < frequencies_hz.size(); ++i) {
    const double w = 2.0 * std::numbers::pi * frequencies_hz[i] / fs_hz;
    std::complex<double> denom(1.0, 0.0);
    for (std::size_t k = 0; k < coefficients.size(); ++k) {
      const double kk = static_cast<double>(k + 1);
      denom -= coefficients[k] * std::exp(std::complex<double>(0.0, -w * kk));
    }
    psd[i] = 2.0 * noise_variance / (fs_hz * std::norm(denom));
  }
  return psd;
}

ArModel levinson_durbin(std::span<const double> autocorr, std::size_t order) {
  if (order == 0) throw std::invalid_argument("levinson_durbin: order == 0");
  if (autocorr.size() < order + 1)
    throw std::invalid_argument("levinson_durbin: need order+1 autocorrelation lags");
  if (autocorr[0] <= 0.0) throw std::invalid_argument("levinson_durbin: r[0] <= 0");

  std::vector<double> a(order, 0.0);   // Predictor coefficients a1..ap.
  std::vector<double> prev(order, 0.0);
  double err = autocorr[0];
  for (std::size_t m = 0; m < order; ++m) {
    double acc = autocorr[m + 1];
    for (std::size_t k = 0; k < m; ++k) acc -= a[k] * autocorr[m - k];
    const double reflection = err > 0.0 ? acc / err : 0.0;
    prev = a;
    a[m] = reflection;
    for (std::size_t k = 0; k < m; ++k) a[k] = prev[k] - reflection * prev[m - 1 - k];
    err *= (1.0 - reflection * reflection);
    if (err < 0.0) err = 0.0;
  }
  return ArModel{std::move(a), err};
}

ArModel ar_yule_walker(std::span<const double> x, std::size_t order) {
  if (order == 0) throw std::invalid_argument("ar_yule_walker: order == 0");
  if (x.size() <= order) throw std::invalid_argument("ar_yule_walker: series too short");
  std::vector<double> centred(x.begin(), x.end());
  remove_mean(centred);
  const auto r = autocorrelation(centred, order);
  if (r[0] <= 0.0) {
    // Constant series: all-zero model with zero driving noise.
    return ArModel{std::vector<double>(order, 0.0), 0.0};
  }
  return levinson_durbin(r, order);
}

namespace {

// Two lanes of doubles: one SSE2 register on x86-64 (the baseline ISA, so
// no flag is needed), a plain pair elsewhere. Every operation acts on each
// lane alone and rounds like its scalar counterpart, so a lane computes
// exactly what the scalar recursion computes on its series. The build's
// -ffp-contract=off keeps mul and add from fusing.
#if defined(__SSE2__) || defined(_M_X64)
using Lanes = __m128d;
inline Lanes load(const double* p) { return _mm_loadu_pd(p); }
inline void store(double* p, Lanes v) { _mm_storeu_pd(p, v); }
inline Lanes splat(double v) { return _mm_set1_pd(v); }
inline Lanes pair(double lane0, double lane1) { return _mm_set_pd(lane1, lane0); }
inline Lanes add(Lanes a, Lanes b) { return _mm_add_pd(a, b); }
inline Lanes sub(Lanes a, Lanes b) { return _mm_sub_pd(a, b); }
inline Lanes mul(Lanes a, Lanes b) { return _mm_mul_pd(a, b); }
inline Lanes div(Lanes a, Lanes b) { return _mm_div_pd(a, b); }
inline double lane(Lanes v, std::size_t l) {
  double out[2];
  _mm_storeu_pd(out, v);
  return out[l];
}
/// den > 0 ? 2 * num / den : 0 per lane (a NaN den gives 0, as in the
/// scalar compare; the masked-off quotient is discarded).
inline Lanes reflection(Lanes num, Lanes den) {
  const __m128d positive = _mm_cmpgt_pd(den, _mm_setzero_pd());
  return _mm_and_pd(positive, _mm_div_pd(_mm_mul_pd(_mm_set1_pd(2.0), num), den));
}
/// e < 0 ? 0 : e per lane.
inline Lanes clamp_negative(Lanes e) {
  return _mm_andnot_pd(_mm_cmplt_pd(e, _mm_setzero_pd()), e);
}
#else
struct Lanes {
  double v[2];
};
inline Lanes load(const double* p) { return {{p[0], p[1]}}; }
inline void store(double* p, Lanes x) {
  p[0] = x.v[0];
  p[1] = x.v[1];
}
inline Lanes splat(double v) { return {{v, v}}; }
inline Lanes pair(double lane0, double lane1) { return {{lane0, lane1}}; }
inline Lanes add(Lanes a, Lanes b) { return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}}; }
inline Lanes sub(Lanes a, Lanes b) { return {{a.v[0] - b.v[0], a.v[1] - b.v[1]}}; }
inline Lanes mul(Lanes a, Lanes b) { return {{a.v[0] * b.v[0], a.v[1] * b.v[1]}}; }
inline Lanes div(Lanes a, Lanes b) { return {{a.v[0] / b.v[0], a.v[1] / b.v[1]}}; }
inline double lane(Lanes x, std::size_t l) { return x.v[l]; }
inline Lanes reflection(Lanes num, Lanes den) {
  Lanes k;
  for (std::size_t l = 0; l < 2; ++l) k.v[l] = den.v[l] > 0.0 ? 2.0 * num.v[l] / den.v[l] : 0.0;
  return k;
}
inline Lanes clamp_negative(Lanes e) {
  for (double& v : e.v)
    if (v < 0.0) v = 0.0;
  return e;
}
#endif

}  // namespace

void ar_burg(std::span<const double> x0, std::span<const double> x1, std::size_t order,
             BurgScratch& scratch) {
  if (order == 0) throw std::invalid_argument("ar_burg: order == 0");
  if (x0.size() != x1.size()) throw std::invalid_argument("ar_burg: series lengths differ");
  if (x0.size() <= order) throw std::invalid_argument("ar_burg: series too short");
  const std::size_t n = x0.size();
  const Lanes count = splat(static_cast<double>(n));

  // Remove each series' mean (an in-order sum, one divide), then seed the
  // forward and backward errors with the centred values and the error
  // power with their mean square. The loops work through raw pointers: the
  // vector stores may alias anything, so a vector's own data pointer would
  // be reloaded after every one.
  Lanes sum = splat(0.0);
  for (std::size_t i = 0; i < n; ++i) sum = add(sum, pair(x0[i], x1[i]));
  const Lanes mean = div(sum, count);
  scratch.f.resize(2 * n);
  scratch.b.resize(2 * n);
  double* const f = scratch.f.data();  // Forward prediction errors.
  double* const b = scratch.b.data();  // Backward prediction errors.
  Lanes energy = splat(0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Lanes c = sub(pair(x0[i], x1[i]), mean);
    store(f + 2 * i, c);
    store(b + 2 * i, c);
    energy = add(energy, mul(c, c));
  }
  Lanes err = div(energy, count);
  // A constant series (zero error power) gets the all-zero model; its lane
  // still steps, and its results are discarded below.
  const bool flat[2] = {lane(err, 0) <= 0.0, lane(err, 1) <= 0.0};

  scratch.a.assign(2 * order, 0.0);
  scratch.prev.resize(2 * order);
  double* const a = scratch.a.data();  // Predictor coefficients built incrementally.
  double* const prev = scratch.prev.data();
  for (std::size_t m = 0; m < order && !(flat[0] && flat[1]); ++m) {
    // Reflection coefficient k_m = 2 * sum f[i] b[i-1] / (sum f^2 + sum b^2).
    Lanes num = splat(0.0), den = splat(0.0);
    for (std::size_t i = m + 1; i < n; ++i) {
      const Lanes fi = load(f + 2 * i);
      const Lanes bi = load(b + 2 * (i - 1));
      num = add(num, mul(fi, bi));
      den = add(den, add(mul(fi, fi), mul(bi, bi)));
    }
    const Lanes k = reflection(num, den);

    // Update predictor coefficients (step-up recursion).
    std::copy(a, a + 2 * m, prev);
    store(a + 2 * m, k);
    for (std::size_t j = 0; j < m; ++j)
      store(a + 2 * j, sub(load(prev + 2 * j), mul(k, load(prev + 2 * (m - 1 - j)))));

    // Update prediction errors (backwards in index to reuse b[i-1]).
    for (std::size_t i = n - 1; i > m; --i) {
      const Lanes fi = load(f + 2 * i);
      const Lanes bi = load(b + 2 * (i - 1));
      store(f + 2 * i, sub(fi, mul(k, bi)));
      store(b + 2 * i, sub(bi, mul(k, fi)));
    }
    err = clamp_negative(mul(err, sub(splat(1.0), mul(k, k))));
  }

  for (std::size_t l = 0; l < 2; ++l) {
    ArModel& model = scratch.model[l];
    model.coefficients.resize(order);
    for (std::size_t j = 0; j < order; ++j) model.coefficients[j] = flat[l] ? 0.0 : a[2 * j + l];
    model.noise_variance = flat[l] ? 0.0 : lane(err, l);
  }
}

}  // namespace svt::dsp
