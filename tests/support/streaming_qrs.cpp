#include "support/streaming_qrs.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"

namespace svt::ecg {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void StreamingQrsDetector::HistoryRing::init(std::size_t min_capacity) {
  buf.assign(next_pow2(min_capacity), 0.0);
  mask = buf.size() - 1;
}

StreamingQrsDetector::StreamingQrsDetector(double fs_hz, const PanTompkinsParams& params)
    : fs_(fs_hz), params_(params) {
  if (fs_hz <= 0.0) throw std::invalid_argument("StreamingQrsDetector: fs_hz <= 0");
  if (!(0.0 < params.bandpass_lo_hz && params.bandpass_lo_hz < params.bandpass_hi_hz &&
        params.bandpass_hi_hz < fs_hz / 2.0))
    throw std::invalid_argument("StreamingQrsDetector: need 0 < lo < hi < fs/2");
  hp_ = dsp::butterworth_highpass(params.bandpass_lo_hz, fs_hz);
  lp_ = dsp::butterworth_lowpass(params.bandpass_hi_hz, fs_hz);
  win_ = std::max<std::size_t>(1, static_cast<std::size_t>(params.integration_window_s * fs_hz));
  refractory_ = static_cast<std::size_t>(params.refractory_s * fs_hz);
  learning_n_ = static_cast<std::int64_t>(static_cast<std::size_t>(params.learning_s * fs_hz));
  decision_lag_ = std::max<std::size_t>(1, win_ / 4);

  const auto learning = static_cast<std::size_t>(learning_n_);
  squared_.init(win_ + 2);
  integrated_.init(learning + decision_lag_ + 4);
  raw_.init(std::max(learning + 2, win_ + decision_lag_ + 2));
  if (learning_n_ == 0) thresholds_ready_ = true;  // Batch: zero-length head leaves 0/0.
}

std::int64_t StreamingQrsDetector::final_through() const {
  if (finished_) return n_;
  return cursor_ > static_cast<std::int64_t>(win_) ? cursor_ - static_cast<std::int64_t>(win_)
                                                   : 0;
}

void StreamingQrsDetector::ingest(double x) {
  raw_.at(n_) = x;
  const double f = lp_.process(hp_.process(x));
  // The batch derivative clamps negative indices to filtered[0]; seeding the
  // delay line with the first filtered value reproduces that edge exactly.
  if (n_ == 0) f1_ = f2_ = f3_ = f4_ = f;
  const double d = fs_ * (2.0 * f + f1_ - f3_ - 2.0 * f4_) / 8.0;
  f4_ = f3_;
  f3_ = f2_;
  f2_ = f1_;
  f1_ = f;

  const double sq = d * d;
  // Same add / subtract / divide order as moving_window_integrate, so the
  // running sum rounds identically to the batch pass.
  integ_acc_ += sq;
  squared_.at(n_) = sq;
  if (n_ >= static_cast<std::int64_t>(win_)) integ_acc_ -= squared_.at(n_ - win_);
  const auto norm = std::min<std::int64_t>(n_ + 1, static_cast<std::int64_t>(win_));
  integrated_.at(n_) = integ_acc_ / static_cast<double>(norm);
  ++n_;
}

void StreamingQrsDetector::learn_thresholds(std::int64_t learning) {
  // Mirrors dsp::max_value / dsp::mean over the integrated head: same
  // traversal order, so the learned thresholds are bit-identical.
  if (learning <= 0) return;
  double maxv = integrated_.at(0);
  double sum = 0.0;
  for (std::int64_t k = 0; k < learning; ++k) {
    const double v = integrated_.at(k);
    if (v > maxv) maxv = v;
    sum += v;
  }
  spki_ = maxv * 0.4;
  npki_ = sum / static_cast<double>(learning) * 0.5;
}

void StreamingQrsDetector::decide(std::int64_t i, std::int64_t raw_end) {
  const double ci = integrated_.at(i);
  const bool is_local_max = ci >= integrated_.at(i - 1) && ci > integrated_.at(i + 1);
  if (!is_local_max) return;
  const double peak = ci;
  const double threshold = npki_ + 0.25 * (spki_ - npki_);

  if (peak > threshold &&
      (!have_peak_ || i - last_peak_idx_ > static_cast<std::int64_t>(refractory_))) {
    // Locate the true R peak in the raw signal near the integrator peak (the
    // integrator delays the peak by roughly the window length). Mid-stream
    // raw_end is the newest sample, which never clamps (the decision lag
    // guarantees i + win/4 samples exist); at finish() it clamps exactly
    // like the batch end-of-record search.
    const std::int64_t search_lo = i >= static_cast<std::int64_t>(win_)
                                       ? i - static_cast<std::int64_t>(win_)
                                       : 0;
    const std::int64_t search_hi =
        std::min(raw_end, i + static_cast<std::int64_t>(win_ / 4));
    std::int64_t best = search_lo;
    for (std::int64_t j = search_lo; j <= search_hi; ++j) {
      if (raw_.at(j) > raw_.at(best)) best = j;
    }
    // Online dedup, same rule as the batch compaction pass: a candidate is
    // kept only if it clears the last *kept* beat by half a refractory.
    const double t = static_cast<double>(best) / fs_;
    if (!have_kept_ || t > last_kept_time_ + params_.refractory_s * 0.5) {
      beats_.push_back({best, raw_.at(best)});
      last_kept_time_ = t;
      have_kept_ = true;
    }
    spki_ = 0.125 * peak + 0.875 * spki_;
    last_peak_idx_ = i;
    have_peak_ = true;
  } else {
    npki_ = 0.125 * peak + 0.875 * npki_;
  }
}

void StreamingQrsDetector::push(std::span<const double> samples_mv) {
  SVT_ASSERT(!finished_);
  for (const double x : samples_mv) {
    ingest(x);
    if (!thresholds_ready_ && n_ >= learning_n_) {
      // The batch detector learns from the first learning_s seconds before
      // scanning from index 1; the catch-up below replays exactly that scan.
      learn_thresholds(learning_n_);
      thresholds_ready_ = true;
    }
    if (!thresholds_ready_) continue;
    const std::int64_t limit = n_ - 1 - static_cast<std::int64_t>(decision_lag_);
    while (cursor_ <= limit) {
      decide(cursor_, n_ - 1);
      ++cursor_;
    }
  }
}

void StreamingQrsDetector::finish() {
  if (finished_) return;
  finished_ = true;
  if (n_ == 0) return;
  if (!thresholds_ready_) {
    // Record shorter than the learning period: the batch detector shrinks
    // the learning head to the record.
    learn_thresholds(std::min(n_, learning_n_));
    thresholds_ready_ = true;
  }
  for (std::int64_t i = cursor_; i + 1 < n_; ++i) decide(i, n_ - 1);
  cursor_ = n_;
}

}  // namespace svt::ecg
