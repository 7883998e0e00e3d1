// Resampling of unevenly-sampled series.
//
// RR-interval tachograms and beat-indexed EDR series are unevenly sampled in
// time (one sample per heartbeat); spectral analysis (Welch, AR) requires a
// uniform grid. This module provides linear-interpolation resampling onto a
// uniform rate, the standard preprocessing in HRV analysis.
#pragma once

#include <span>
#include <vector>

namespace svt::dsp {

/// A uniformly resampled series: value[i] sampled at start_time_s + i/fs_hz.
struct UniformSeries {
  std::vector<double> values;
  double fs_hz = 0.0;
  double start_time_s = 0.0;

  double duration_s() const {
    return fs_hz > 0.0 ? static_cast<double>(values.size()) / fs_hz : 0.0;
  }
};

/// Linearly interpolate the samples (t[i], v[i]) onto a uniform grid at fs_hz
/// spanning [t.front(), t.back()]. Times must be strictly increasing.
/// Throws on size mismatch, fewer than 2 samples, non-increasing times or
/// fs_hz <= 0.
UniformSeries resample_linear(std::span<const double> times_s, std::span<const double> values,
                              double fs_hz);

/// Scratch variant of resample_linear: the grid values land in `out_values`
/// (resized; capacity reused across calls) and the grid origin in
/// `start_time_s`. Validates the series once up front, then runs
/// interpolate_grid, so every grid value is bit-identical to interpolate_at
/// at that grid time.
void resample_linear_into(std::span<const double> times_s, std::span<const double> values,
                          double fs_hz, double& start_time_s, std::vector<double>& out_values);

/// The grid loop behind resample_linear_into, unchecked: out[i] is
/// interpolate_at(times_s, values, start_time_s + i/fs_hz) for every i, with
/// the same arithmetic. The grid is monotone, so the source segment advances
/// by a forward walk instead of a binary search per point. Requires a
/// non-empty series with strictly increasing times and fs_hz > 0.
void interpolate_grid(std::span<const double> times_s, std::span<const double> values,
                      double start_time_s, double fs_hz, std::span<double> out);

/// Linear interpolation at a single query time (clamps outside the range).
double interpolate_at(std::span<const double> times_s, std::span<const double> values,
                      double query_time_s);

}  // namespace svt::dsp
