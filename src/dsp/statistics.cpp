#include "dsp/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/assert.hpp"

namespace svt::dsp {

namespace {

void require_non_empty(std::span<const double> x, const char* what) {
  if (x.empty()) throw std::invalid_argument(std::string(what) + ": empty input");
}

}  // namespace

double mean(std::span<const double> x) {
  require_non_empty(x, "mean");
  return std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(x.size());
}

double variance_population(std::span<const double> x) {
  require_non_empty(x, "variance_population");
  const double m = mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size());
}

double variance_sample(std::span<const double> x) {
  if (x.size() < 2) throw std::invalid_argument("variance_sample: need at least 2 samples");
  const double m = mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size() - 1);
}

double stddev_population(std::span<const double> x) { return std::sqrt(variance_population(x)); }

double stddev_sample(std::span<const double> x) { return std::sqrt(variance_sample(x)); }

double rms(std::span<const double> x) {
  require_non_empty(x, "rms");
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return std::sqrt(acc / static_cast<double>(x.size()));
}

double min_value(std::span<const double> x) {
  require_non_empty(x, "min_value");
  return *std::min_element(x.begin(), x.end());
}

double max_value(std::span<const double> x) {
  require_non_empty(x, "max_value");
  return *std::max_element(x.begin(), x.end());
}

double percentile(std::span<const double> x, double p) {
  require_non_empty(x, "percentile");
  std::vector<double> copy(x.begin(), x.end());
  return percentile_select(copy, p);
}

double percentile_select(std::span<double> x, double p) {
  require_non_empty(x, "percentile");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of [0,100]");
  if (x.size() == 1) return x.front();
  const double pos = p / 100.0 * static_cast<double>(x.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  // x[lo] becomes the lo-th order statistic, with everything after it no
  // smaller, so the (lo+1)-th is the minimum of that upper part.
  const auto nth = x.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(x.begin(), nth, x.end());
  const double at_lo = *nth;
  const double at_hi = hi == lo ? at_lo : *std::min_element(nth + 1, x.end());
  return at_lo * (1.0 - frac) + at_hi * frac;
}

double median(std::span<const double> x) { return percentile(x, 50.0); }

double covariance_population(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("covariance_population: size mismatch");
  require_non_empty(x, "covariance_population");
  const double mx = mean(x);
  const double my = mean(y);
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += (x[i] - mx) * (y[i] - my);
  return acc / static_cast<double>(x.size());
}

double pearson(std::span<const double> x, std::span<const double> y) {
  const double cov = covariance_population(x, y);
  const double sx = stddev_population(x);
  const double sy = stddev_population(y);
  if (sx <= 0.0 || sy <= 0.0) return 0.0;
  return cov / (sx * sy);
}

void successive_differences_into(std::span<const double> x, std::vector<double>& out) {
  if (x.size() < 2) throw std::invalid_argument("successive_differences: need at least 2 samples");
  out.resize(x.size() - 1);
  for (std::size_t i = 0; i + 1 < x.size(); ++i) out[i] = x[i + 1] - x[i];
}

double fraction_abs_above(std::span<const double> values, double threshold) {
  std::size_t count = 0;
  for (double v : values) {
    if (std::abs(v) > threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(values.size());
}

std::vector<double> autocorrelation(std::span<const double> x, std::size_t max_lag) {
  require_non_empty(x, "autocorrelation");
  if (max_lag >= x.size()) throw std::invalid_argument("autocorrelation: max_lag >= size");
  std::vector<double> r(max_lag + 1, 0.0);
  const auto n = x.size();
  for (std::size_t k = 0; k <= max_lag; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i + k < n; ++i) acc += x[i] * x[i + k];
    r[k] = acc / static_cast<double>(n);
  }
  return r;
}

void remove_mean(std::vector<double>& x) {
  if (x.empty()) return;
  const double m = mean(x);
  for (double& v : x) v -= m;
}

}  // namespace svt::dsp
