#include "dsp/ar_model.hpp"

#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "common/assert.hpp"
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

ArModel ar_burg(std::span<const double> x, std::size_t order) {
  BurgScratch scratch;
  ar_burg(x, order, scratch);
  return ArModel{std::move(scratch.a), scratch.noise_variance};
}

void ar_burg(std::span<const double> x, std::size_t order, BurgScratch& scratch) {
  if (order == 0) throw std::invalid_argument("ar_burg: order == 0");
  if (x.size() <= order) throw std::invalid_argument("ar_burg: series too short");
  auto& centred = scratch.centred;
  centred.assign(x.begin(), x.end());
  remove_mean(centred);
  const std::size_t n = centred.size();

  auto& f = scratch.f;  // Forward prediction errors.
  auto& b = scratch.b;  // Backward prediction errors.
  auto& a = scratch.a;  // Predictor coefficients built incrementally.
  f.assign(centred.begin(), centred.end());
  b.assign(centred.begin(), centred.end());
  a.clear();
  a.reserve(order);

  double err = 0.0;
  for (double v : centred) err += v * v;
  err /= static_cast<double>(n);
  if (err <= 0.0) {
    a.assign(order, 0.0);
    scratch.noise_variance = 0.0;
    return;
  }

  for (std::size_t m = 0; m < order; ++m) {
    // Reflection coefficient k_m = 2 * sum f[i] b[i-1] / (sum f^2 + sum b^2).
    double num = 0.0, den = 0.0;
    for (std::size_t i = m + 1; i < n; ++i) {
      num += f[i] * b[i - 1];
      den += f[i] * f[i] + b[i - 1] * b[i - 1];
    }
    const double k = den > 0.0 ? 2.0 * num / den : 0.0;

    // Update predictor coefficients (step-up recursion).
    auto& prev = scratch.prev;
    prev.assign(a.begin(), a.end());
    a.push_back(k);
    for (std::size_t j = 0; j < m; ++j) a[j] = prev[j] - k * prev[m - 1 - j];

    // Update prediction errors (backwards in index to reuse b[i-1]).
    for (std::size_t i = n - 1; i > m; --i) {
      const double fi = f[i];
      const double bi = b[i - 1];
      f[i] = fi - k * bi;
      b[i] = bi - k * fi;
    }
    err *= (1.0 - k * k);
    if (err < 0.0) err = 0.0;
  }
  scratch.noise_variance = err;
}

}  // namespace svt::dsp
