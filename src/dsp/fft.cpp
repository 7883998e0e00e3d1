#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/assert.hpp"

namespace svt::dsp {

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  if (n == 0) throw std::invalid_argument("next_power_of_two: n == 0");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

void bit_reverse_permute(std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
}

void fft_core(std::vector<std::complex<double>>& x, bool inverse) {
  const std::size_t n = x.size();
  if (!is_power_of_two(n)) throw std::invalid_argument("fft: size must be a power of two");
  bit_reverse_permute(x);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = x[i + k];
        const std::complex<double> v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& v : x) v /= static_cast<double>(n);
  }
}

}  // namespace

void fft_inplace(std::vector<std::complex<double>>& x) { fft_core(x, /*inverse=*/false); }

void ifft_inplace(std::vector<std::complex<double>>& x) { fft_core(x, /*inverse=*/true); }

std::vector<std::complex<double>> fft_real(std::span<const double> x, std::size_t fft_size) {
  if (x.empty()) throw std::invalid_argument("fft_real: empty input");
  std::size_t n = fft_size == 0 ? next_power_of_two(x.size()) : fft_size;
  if (!is_power_of_two(n) || n < x.size())
    throw std::invalid_argument("fft_real: fft_size must be a power of two >= input size");
  std::vector<std::complex<double>> buf(n, {0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) buf[i] = {x[i], 0.0};
  fft_inplace(buf);
  return buf;
}

std::vector<double> magnitude_squared_spectrum(std::span<const double> x, std::size_t fft_size) {
  const auto spec = fft_real(x, fft_size);
  const std::size_t half = spec.size() / 2;
  std::vector<double> mag(half + 1);
  for (std::size_t k = 0; k <= half; ++k) mag[k] = std::norm(spec[k]);
  return mag;
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) throw std::invalid_argument("FftPlan: size must be a power of two");
  bitrev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) bitrev_[i] = i;
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    bitrev_[i] = j;
  }
  // Per-stage twiddle chains, generated with the same w *= wlen recurrence
  // fft_core runs inside each butterfly block: table lookups therefore feed
  // the butterflies the exact doubles the planless path computes.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    std::vector<std::complex<double>> stage(len / 2);
    std::complex<double> w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      stage[k] = w;
      w *= wlen;
    }
    twiddles_.push_back(std::move(stage));
  }
}

void fft_inplace(std::span<std::complex<double>> x, const FftPlan& plan) {
  const std::size_t n = x.size();
  if (n != plan.size()) throw std::invalid_argument("fft_inplace: size != plan size");
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++stage) {
    const auto& tw = plan.twiddles_[stage];
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = x[i + k];
        const std::complex<double> v = x[i + k + len / 2] * tw[k];
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
      }
    }
  }
}

}  // namespace svt::dsp
