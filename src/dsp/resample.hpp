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

namespace svt::dsp {

/// Linear interpolation onto a uniform grid, unchecked: out[i] is
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
