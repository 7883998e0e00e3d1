// Descriptive statistics over real-valued series.
//
// These are the numerical primitives behind the HRV / Lorentz-plot features
// (paper Section III, "Reducing the features set") and behind the
// correlation-driven feature selection (paper Eq. 4).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace svt::dsp {

/// Arithmetic mean. Throws std::invalid_argument on an empty span.
double mean(std::span<const double> x);

/// Population variance (divides by N). Throws on empty input.
double variance_population(std::span<const double> x);

/// Sample variance (divides by N-1). Throws if fewer than two samples.
double variance_sample(std::span<const double> x);

/// Population standard deviation.
double stddev_population(std::span<const double> x);

/// Sample standard deviation.
double stddev_sample(std::span<const double> x);

/// Root mean square of the series. Throws on empty input.
double rms(std::span<const double> x);

/// Minimum value. Throws on empty input.
double min_value(std::span<const double> x);

/// Maximum value. Throws on empty input.
double max_value(std::span<const double> x);

/// Median (interpolated for even-sized inputs). Throws on empty input.
double median(std::span<const double> x);

/// Linear-interpolated percentile, p in [0,100]. Throws on empty input or
/// out-of-range p.
double percentile(std::span<const double> x, double p);

/// percentile() over an ALREADY ascending-sorted span (no copy, no sort).
/// The scratch feature path sorts once and reads several percentiles from
/// the same buffer; percentile() delegates here, so both agree bit-for-bit.
double percentile_sorted(std::span<const double> sorted, double p);

/// Population covariance between two equally-sized series. Throws on size
/// mismatch or empty input.
double covariance_population(std::span<const double> x, std::span<const double> y);

/// Pearson correlation coefficient (paper Eq. 4). Returns 0 when either
/// series is constant (the paper's redundancy analysis treats a constant
/// feature as uncorrelated rather than undefined).
double pearson(std::span<const double> x, std::span<const double> y);

/// Successive differences x[i+1]-x[i] into `out` (resized to N-1; capacity
/// reused, so the HRV path allocates nothing once warm). Throws if x has
/// < 2 samples.
void successive_differences_into(std::span<const double> x, std::vector<double>& out);

/// Fraction (in [0,1]) of values with |v| > threshold. Over successive
/// differences this is the HRV "pNNx" primitive (the scratch HRV path's
/// pNN50).
double fraction_abs_above(std::span<const double> values, double threshold);

/// Biased autocorrelation r[k] = (1/N) * sum_{n} x[n] x[n+k], k = 0..max_lag.
/// Throws if max_lag >= x.size().
std::vector<double> autocorrelation(std::span<const double> x, std::size_t max_lag);

/// Remove the arithmetic mean in place.
void remove_mean(std::vector<double>& x);

}  // namespace svt::dsp
