#include "support/batch_qrs.hpp"

#include <algorithm>
#include <stdexcept>

#include "dsp/statistics.hpp"

namespace svt::dsp {

std::vector<double> filter(Biquad biquad, std::span<const double> x) {
  biquad.reset();
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = biquad.process(x[i]);
  return y;
}

std::vector<double> bandpass_filter(std::span<const double> x, double lo_hz, double hi_hz,
                                    double fs_hz) {
  if (!(0.0 < lo_hz && lo_hz < hi_hz && hi_hz < fs_hz / 2.0))
    throw std::invalid_argument("bandpass_filter: need 0 < lo < hi < fs/2");
  const auto high = filter(butterworth_highpass(lo_hz, fs_hz), x);
  return filter(butterworth_lowpass(hi_hz, fs_hz), high);
}

std::vector<double> five_point_derivative(std::span<const double> x, double fs_hz) {
  if (fs_hz <= 0.0) throw std::invalid_argument("five_point_derivative: fs_hz <= 0");
  std::vector<double> y(x.size(), 0.0);
  auto at = [&](std::ptrdiff_t i) {
    i = std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(x.size()) - 1);
    return x[static_cast<std::size_t>(i)];
  };
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(x.size()); ++i) {
    y[static_cast<std::size_t>(i)] =
        fs_hz * (2.0 * at(i) + at(i - 1) - at(i - 3) - 2.0 * at(i - 4)) / 8.0;
  }
  return y;
}

std::vector<double> moving_window_integrate(std::span<const double> x, std::size_t window) {
  if (window == 0) throw std::invalid_argument("moving_window_integrate: window == 0");
  std::vector<double> y(x.size(), 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += x[i];
    if (i >= window) acc -= x[i - window];
    const std::size_t n = std::min(i + 1, window);
    y[i] = acc / static_cast<double>(n);
  }
  return y;
}

}  // namespace svt::dsp

namespace svt::ecg {

QrsDetection detect_qrs(const EcgWaveform& ecg, const PanTompkinsParams& params) {
  if (ecg.samples_mv.empty()) throw std::invalid_argument("detect_qrs: empty waveform");
  if (ecg.fs_hz <= 0.0) throw std::invalid_argument("detect_qrs: fs_hz <= 0");
  const double fs = ecg.fs_hz;

  // Stage 1-4: band-pass, derivative, squaring, moving-window integration.
  auto filtered = dsp::bandpass_filter(ecg.samples_mv, params.bandpass_lo_hz,
                                       params.bandpass_hi_hz, fs);
  auto deriv = dsp::five_point_derivative(filtered, fs);
  for (double& v : deriv) v *= v;
  const auto win = std::max<std::size_t>(1, static_cast<std::size_t>(params.integration_window_s * fs));
  auto integrated = dsp::moving_window_integrate(deriv, win);

  // Stage 5: adaptive thresholding on the integrated signal.
  const auto refractory = static_cast<std::size_t>(params.refractory_s * fs);
  const auto learning = std::min(integrated.size(),
                                 static_cast<std::size_t>(params.learning_s * fs));

  double spki = 0.0;  // Running signal-peak estimate.
  double npki = 0.0;  // Running noise-peak estimate.
  if (learning > 0) {
    const std::span<const double> head(integrated.data(), learning);
    spki = dsp::max_value(head) * 0.4;
    npki = dsp::mean(head) * 0.5;
  }

  QrsDetection out;
  std::size_t last_peak_idx = 0;
  bool have_peak = false;

  for (std::size_t i = 1; i + 1 < integrated.size(); ++i) {
    const bool is_local_max = integrated[i] >= integrated[i - 1] && integrated[i] > integrated[i + 1];
    if (!is_local_max) continue;
    const double peak = integrated[i];
    const double threshold = npki + 0.25 * (spki - npki);

    if (peak > threshold && (!have_peak || i - last_peak_idx > refractory)) {
      // Locate the true R peak in the raw signal near the integrator peak
      // (the integrator delays the peak by roughly the window length).
      const std::size_t search_lo = i >= win ? i - win : 0;
      const std::size_t search_hi = std::min(ecg.samples_mv.size() - 1, i + win / 4);
      std::size_t best = search_lo;
      for (std::size_t j = search_lo; j <= search_hi; ++j) {
        if (ecg.samples_mv[j] > ecg.samples_mv[best]) best = j;
      }
      out.r_peak_times_s.push_back(static_cast<double>(best) / fs);
      out.r_amplitudes_mv.push_back(ecg.samples_mv[best]);
      spki = 0.125 * peak + 0.875 * spki;
      last_peak_idx = i;
      have_peak = true;
    } else {
      npki = 0.125 * peak + 0.875 * npki;
    }
  }

  // Deduplicate peaks mapped to the same raw sample (can happen when two
  // integrator maxima point at one R wave) and enforce monotonic times.
  auto& t = out.r_peak_times_s;
  auto& a = out.r_amplitudes_mv;
  std::size_t w = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (w == 0 || t[i] > t[w - 1] + params.refractory_s * 0.5) {
      t[w] = t[i];
      a[w] = a[i];
      ++w;
    }
  }
  t.resize(w);
  a.resize(w);
  return out;
}

}  // namespace svt::ecg
