#include "dsp/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "dsp/fft.hpp"
#include "dsp/statistics.hpp"

namespace svt::dsp {

double PsdEstimate::resolution_hz() const {
  if (frequency_hz.size() < 2) return 0.0;
  return frequency_hz[1] - frequency_hz[0];
}

PsdEstimate welch_psd(std::span<const double> x, double fs_hz, const WelchParams& params) {
  SpectralScratch scratch;
  PsdEstimate out;
  welch_psd(x, fs_hz, params, scratch, out);
  return out;
}

namespace {

/// One windowed segment's one-sided PSD through the scratch FFT path,
/// normalised so that summing power * df recovers the windowed signal power
/// (|X[k]|^2 / (fs * sum w^2), interior bins doubled). `accumulate` adds the
/// segment's power into `power` (which must hold nfft/2+1 bins) instead of
/// overwriting it.
void segment_power_into(std::span<const double> x, double fs_hz, std::span<const double> w,
                        SpectralScratch& scratch, double* power, bool accumulate) {
  SVT_ASSERT(x.size() == w.size());
  const std::size_t nfft = next_power_of_two(x.size());
  auto& buf = scratch.fft_buf;
  buf.assign(nfft, {0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) buf[i] = {x[i] * w[i], 0.0};
  if (!scratch.plan || scratch.plan->size() != nfft) scratch.plan.emplace(nfft);
  fft_inplace(buf, *scratch.plan);

  const std::size_t half = nfft / 2;
  const double norm = fs_hz * window_power(w);
  for (std::size_t k = 0; k <= half; ++k) {
    const double re = buf[k].real();
    const double im = buf[k].imag();
    double p = (re * re + im * im) / norm;
    if (k != 0 && k != half) p *= 2.0;  // One-sided estimate folds the negative axis.
    if (accumulate) {
      power[k] += p;
    } else {
      power[k] = p;
    }
  }
}

/// (Re)build the cached taper when the requested (type, length) differs.
void ensure_window(SpectralScratch& scratch, WindowType type, std::size_t len) {
  if (scratch.window_len != len || scratch.window_type != type || scratch.window.empty()) {
    scratch.window = make_window(type, len);
    scratch.window_len = len;
    scratch.window_type = type;
  }
}

}  // namespace

void welch_psd(std::span<const double> x, double fs_hz, const WelchParams& params,
               SpectralScratch& scratch, PsdEstimate& out) {
  if (x.empty()) throw std::invalid_argument("welch_psd: empty input");
  if (fs_hz <= 0.0) throw std::invalid_argument("welch_psd: fs_hz <= 0");
  if (params.segment_length == 0) throw std::invalid_argument("welch_psd: segment_length == 0");
  if (params.overlap_fraction < 0.0 || params.overlap_fraction >= 1.0)
    throw std::invalid_argument("welch_psd: overlap_fraction outside [0,1)");

  const std::size_t seg = std::min(params.segment_length, x.size());
  auto hop = static_cast<std::size_t>(
      std::max(1.0, std::round(static_cast<double>(seg) * (1.0 - params.overlap_fraction))));
  ensure_window(scratch, params.window, seg);

  const std::size_t nfft = next_power_of_two(seg);
  const std::size_t half = nfft / 2;
  const double df = fs_hz / static_cast<double>(nfft);
  out.frequency_hz.resize(half + 1);
  out.power.resize(half + 1);
  for (std::size_t k = 0; k <= half; ++k) out.frequency_hz[k] = df * static_cast<double>(k);

  // seg <= x.size() by construction, so the loop always runs at least once.
  std::size_t count = 0;
  for (std::size_t start = 0; start + seg <= x.size(); start += hop) {
    scratch.segment.assign(x.begin() + static_cast<std::ptrdiff_t>(start),
                           x.begin() + static_cast<std::ptrdiff_t>(start + seg));
    if (params.detrend_segments) remove_mean(scratch.segment);
    segment_power_into(scratch.segment, fs_hz, scratch.window, scratch, out.power.data(),
                       /*accumulate=*/count > 0);
    ++count;
  }
  SVT_ASSERT(count > 0);
  for (double& p : out.power) p /= static_cast<double>(count);
}

void welch_segment_psd(std::span<const double> x, double fs_hz, const WelchParams& params,
                       SpectralScratch& scratch, std::vector<double>& power) {
  if (x.empty()) throw std::invalid_argument("welch_segment_psd: empty input");
  if (fs_hz <= 0.0) throw std::invalid_argument("welch_segment_psd: fs_hz <= 0");
  ensure_window(scratch, params.window, x.size());
  scratch.segment.assign(x.begin(), x.end());
  if (params.detrend_segments) remove_mean(scratch.segment);
  power.resize(next_power_of_two(x.size()) / 2 + 1);
  segment_power_into(scratch.segment, fs_hz, scratch.window, scratch, power.data(),
                     /*accumulate=*/false);
}

namespace {

/// The bins [first, last) a full scan would select for the band [f_lo,
/// f_hi): those with f >= f_lo and f < f_hi. Over ascending frequencies the
/// first test fails on a prefix and the second holds on a prefix, so two
/// binary searches with those same comparisons find the run. A NaN edge
/// fails its comparison everywhere, and the run comes out empty, as in a
/// scan.
std::pair<std::size_t, std::size_t> band_bins(const PsdEstimate& psd, double f_lo, double f_hi) {
  const auto& f = psd.frequency_hz;
  const auto first =
      std::partition_point(f.begin(), f.end(), [f_lo](double v) { return !(v >= f_lo); });
  const auto last = std::partition_point(first, f.end(), [f_hi](double v) { return v < f_hi; });
  return {static_cast<std::size_t>(first - f.begin()), static_cast<std::size_t>(last - f.begin())};
}

}  // namespace

double band_power(const PsdEstimate& psd, double f_lo, double f_hi) {
  if (f_hi < f_lo) throw std::invalid_argument("band_power: f_hi < f_lo");
  const double df = psd.resolution_hz();
  if (df <= 0.0) return 0.0;
  const auto [first, last] = band_bins(psd, f_lo, f_hi);
  double acc = 0.0;
  for (std::size_t k = first; k < last; ++k) acc += psd.power[k] * df;
  return acc;
}

double total_power(const PsdEstimate& psd) {
  const double df = psd.resolution_hz();
  double acc = 0.0;
  for (double p : psd.power) acc += p * df;
  return acc;
}

double peak_frequency(const PsdEstimate& psd, double f_lo, double f_hi) {
  double best_f = f_lo;
  double best_p = -1.0;
  const auto [first, last] = band_bins(psd, f_lo, f_hi);
  for (std::size_t k = first; k < last; ++k) {
    if (psd.power[k] > best_p) {
      best_p = psd.power[k];
      best_f = psd.frequency_hz[k];
    }
  }
  return best_f;
}

double spectral_edge_frequency(const PsdEstimate& psd, double fraction) {
  if (fraction <= 0.0 || fraction > 1.0)
    throw std::invalid_argument("spectral_edge_frequency: fraction outside (0,1]");
  const double total = total_power(psd);
  if (total <= 0.0) return 0.0;
  const double df = psd.resolution_hz();
  double acc = 0.0;
  for (std::size_t k = 0; k < psd.power.size(); ++k) {
    acc += psd.power[k] * df;
    if (acc >= fraction * total) return psd.frequency_hz[k];
  }
  return psd.frequency_hz.empty() ? 0.0 : psd.frequency_hz.back();
}

}  // namespace svt::dsp
