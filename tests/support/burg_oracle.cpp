#include "support/burg_oracle.hpp"

#include <stdexcept>
#include <vector>

#include "dsp/statistics.hpp"

namespace svt::dsp {

ArModel ar_burg_scalar(std::span<const double> x, std::size_t order) {
  if (order == 0) throw std::invalid_argument("ar_burg_scalar: order == 0");
  if (x.size() <= order) throw std::invalid_argument("ar_burg_scalar: series too short");
  std::vector<double> centred(x.begin(), x.end());
  remove_mean(centred);
  const std::size_t n = centred.size();

  std::vector<double> f = centred;  // Forward prediction errors.
  std::vector<double> b = centred;  // Backward prediction errors.
  std::vector<double> a;            // Predictor coefficients built incrementally.
  a.reserve(order);

  double err = 0.0;
  for (double v : centred) err += v * v;
  err /= static_cast<double>(n);
  if (err <= 0.0) return ArModel{std::vector<double>(order, 0.0), 0.0};

  for (std::size_t m = 0; m < order; ++m) {
    // Reflection coefficient k_m = 2 * sum f[i] b[i-1] / (sum f^2 + sum b^2).
    double num = 0.0, den = 0.0;
    for (std::size_t i = m + 1; i < n; ++i) {
      num += f[i] * b[i - 1];
      den += f[i] * f[i] + b[i - 1] * b[i - 1];
    }
    const double k = den > 0.0 ? 2.0 * num / den : 0.0;

    // Update predictor coefficients (step-up recursion).
    const std::vector<double> prev = a;
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
  return ArModel{std::move(a), err};
}

}  // namespace svt::dsp
