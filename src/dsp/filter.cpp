#include "dsp/filter.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace svt::dsp {

namespace {

void require_cutoff(double cutoff_hz, double fs_hz, const char* what) {
  if (fs_hz <= 0.0) throw std::invalid_argument(std::string(what) + ": fs_hz <= 0");
  if (cutoff_hz <= 0.0 || cutoff_hz >= fs_hz / 2.0)
    throw std::invalid_argument(std::string(what) + ": cutoff outside (0, fs/2)");
}

}  // namespace

Biquad butterworth_lowpass(double cutoff_hz, double fs_hz) {
  require_cutoff(cutoff_hz, fs_hz, "butterworth_lowpass");
  const double k = std::tan(std::numbers::pi * cutoff_hz / fs_hz);
  const double q = 1.0 / std::numbers::sqrt2;
  const double norm = 1.0 / (1.0 + k / q + k * k);
  const double b0 = k * k * norm;
  return Biquad{b0, 2.0 * b0, b0, 2.0 * (k * k - 1.0) * norm, (1.0 - k / q + k * k) * norm};
}

Biquad butterworth_highpass(double cutoff_hz, double fs_hz) {
  require_cutoff(cutoff_hz, fs_hz, "butterworth_highpass");
  const double k = std::tan(std::numbers::pi * cutoff_hz / fs_hz);
  const double q = 1.0 / std::numbers::sqrt2;
  const double norm = 1.0 / (1.0 + k / q + k * k);
  const double b0 = norm;
  return Biquad{b0, -2.0 * b0, b0, 2.0 * (k * k - 1.0) * norm, (1.0 - k / q + k * k) * norm};
}

}  // namespace svt::dsp
