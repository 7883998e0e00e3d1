// Resampling of unevenly-sampled series.
//
// RR-interval tachograms and beat-indexed EDR series are unevenly sampled in
// time (one sample per heartbeat); spectral analysis (Welch, AR) requires a
// uniform grid. This module provides linear-interpolation resampling onto a
// uniform rate, the standard preprocessing in HRV analysis. The serving
// path (features::SegmentFeatureCache) runs interpolate_grid per stride
// chunk; interpolate_at is the per-point reference it is tested against.
#pragma once

#include <span>
#include <vector>

namespace svt::dsp {

/// Linearly interpolate the samples (t[i], v[i]) onto a uniform grid at
/// fs_hz spanning [t.front(), t.back()]: the grid origin t.front() lands in
/// `start_time_s` and the floor((t.back() - t.front()) * fs_hz) + 1 grid
/// values in `out_values` (resized; capacity reused across calls). Throws
/// std::invalid_argument on a size mismatch, fewer than 2 samples,
/// non-increasing times or fs_hz <= 0. Validates the series once up front,
/// then runs interpolate_grid, so every grid value is bit-identical to
/// interpolate_at at that grid time.
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
