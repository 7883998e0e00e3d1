#include "ecg/quality.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace svt::ecg {

std::size_t count_rr_outliers(std::span<const double> rr_s, const QualityConfig& config) {
  const std::size_t n = rr_s.size();
  if (n < config.min_rr_intervals) return 0;
  std::size_t outliers = 0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    if (rr_s[i - 1] <= 0.0 || rr_s[i + 1] <= 0.0) continue;
    const double r_prev = rr_s[i] / rr_s[i - 1];
    const double r_next = rr_s[i] / rr_s[i + 1];
    const auto outside = [&](double r) {
      return r < config.rr_ratio_low || r > config.rr_ratio_high;
    };
    // Both neighbours must disagree: a single step is the *next* interval's
    // problem too, but an isolated spike disagrees on both sides.
    if (outside(r_prev) && outside(r_next)) ++outliers;
  }
  return outliers;
}

SignalQualityGate::SignalQualityGate(const QualityConfig& config, double fs_hz)
    : config_(config) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("SignalQualityGate: ") + what);
  };
  // Each condition holds only for finite values, so a NaN fails it.
  require(std::isfinite(fs_hz) && fs_hz > 0.0, "fs_hz must be finite and > 0");
  require(std::isfinite(config.amp_threshold_mv), "amp_threshold_mv must be finite");
  require(std::isfinite(config.slew_threshold_mv), "slew_threshold_mv must be finite");
  require(std::isfinite(config.refractory_s) && config.refractory_s >= 0.0,
          "refractory_s must be finite and >= 0");
  // The hold is a sample count: it must round to an integer exactly.
  require(config.refractory_s * fs_hz <= 0x1p53, "refractory_s * fs_hz exceeds 2^53 samples");
  require(std::isfinite(config.rr_ratio_low) && config.rr_ratio_low > 0.0,
          "rr_ratio_low must be finite and > 0");
  require(std::isfinite(config.rr_ratio_high) && config.rr_ratio_high > 0.0,
          "rr_ratio_high must be finite and > 0");
  require(config.rr_ratio_low <= config.rr_ratio_high, "inverted RR ratio band");
  refractory_samples_ = std::llround(config.refractory_s * fs_hz);
}

void SignalQualityGate::scan(std::span<const double> samples_mv, std::int64_t base_index) {
  const bool check_amp = config_.amp_threshold_mv > 0.0;
  const bool check_slew = config_.slew_threshold_mv > 0.0;
  for (std::size_t i = 0; i < samples_mv.size(); ++i) {
    const double x = samples_mv[i];
    const double slew = has_prev_ ? std::abs(x - prev_sample_) : 0.0;
    prev_sample_ = x;
    has_prev_ = true;
    if (refractory_left_ > 0) {
      // Inside a hold: the span already covers this sample; re-triggering
      // here would turn one burst into a hit per sample.
      --refractory_left_;
      continue;
    }
    const bool hit = (check_amp && std::abs(x) > config_.amp_threshold_mv) ||
                     (check_slew && slew > config_.slew_threshold_mv);
    if (!hit) continue;
    ++stats_.artifact_hits;
    refractory_left_ = refractory_samples_;
    const std::int64_t begin = base_index + static_cast<std::int64_t>(i);
    const std::int64_t end = begin + 1 + refractory_samples_;
    if (!spans_.empty() && spans_.back().end >= begin) {
      // Contiguous with (or overlapping) the previous span: extend it.
      Span& back = spans_.back();
      if (end > back.end) {
        stats_.rejected_samples += static_cast<std::uint64_t>(end - back.end);
        back.end = end;
      }
    } else {
      spans_.push_back({begin, end});
      ++stats_.artifact_spans;
      stats_.rejected_samples += static_cast<std::uint64_t>(end - begin);
    }
  }
}

bool SignalQualityGate::overlaps_artifact(std::int64_t begin, std::int64_t end) const {
  for (const Span& span : spans_) {
    if (span.begin >= end) break;  // Sorted: nothing later can overlap.
    if (span.end > begin) return true;
  }
  return false;
}

void SignalQualityGate::drop_spans_before(std::int64_t bound) {
  const auto first_kept = std::find_if(
      spans_.begin(), spans_.end(), [bound](const Span& s) { return s.end > bound; });
  spans_.erase(spans_.begin(), first_kept);
}

}  // namespace svt::ecg
