#include "dsp/resample.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

namespace svt::dsp {

namespace {

void validate_series(std::span<const double> times_s, std::span<const double> values,
                     const char* what) {
  if (times_s.size() != values.size())
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  if (times_s.size() < 2)
    throw std::invalid_argument(std::string(what) + ": need at least 2 samples");
  for (std::size_t i = 1; i < times_s.size(); ++i) {
    if (times_s[i] <= times_s[i - 1])
      throw std::invalid_argument(std::string(what) + ": times must be strictly increasing");
  }
}

/// Linear interpolation on the source segment [hi-1, hi] that contains t.
double lerp_segment(std::span<const double> times_s, std::span<const double> values,
                    std::size_t hi, double t) {
  const std::size_t lo = hi - 1;
  const double span = times_s[hi] - times_s[lo];
  SVT_ASSERT(span > 0.0);
  const double frac = (t - times_s[lo]) / span;
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace

double interpolate_at(std::span<const double> times_s, std::span<const double> values,
                      double query_time_s) {
  validate_series(times_s, values, "interpolate_at");
  if (query_time_s <= times_s.front()) return values.front();
  if (query_time_s >= times_s.back()) return values.back();
  // First element strictly greater than the query.
  const auto it = std::upper_bound(times_s.begin(), times_s.end(), query_time_s);
  const auto hi = static_cast<std::size_t>(std::distance(times_s.begin(), it));
  return lerp_segment(times_s, values, hi, query_time_s);
}

void interpolate_grid(std::span<const double> times_s, std::span<const double> values,
                      double start_time_s, double fs_hz, std::span<double> out) {
  const double t_front = times_s.front();
  const double t_back = times_s.back();
  std::size_t hi = 1;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double t = start_time_s + static_cast<double>(i) / fs_hz;
    if (t <= t_front) {
      out[i] = values.front();
    } else if (t >= t_back) {
      out[i] = values.back();
    } else {
      while (times_s[hi] <= t) ++hi;  // First knot past t, as upper_bound finds.
      out[i] = lerp_segment(times_s, values, hi, t);
    }
  }
}

void resample_linear_into(std::span<const double> times_s, std::span<const double> values,
                          double fs_hz, double& start_time_s, std::vector<double>& out_values) {
  validate_series(times_s, values, "resample_linear_into");
  if (fs_hz <= 0.0) throw std::invalid_argument("resample_linear_into: fs_hz <= 0");
  start_time_s = times_s.front();
  const double duration = times_s.back() - times_s.front();
  out_values.resize(static_cast<std::size_t>(std::floor(duration * fs_hz)) + 1);
  interpolate_grid(times_s, values, start_time_s, fs_hz, out_values);
}

}  // namespace svt::dsp
