// Incremental (streaming) Pan-Tompkins QRS detection: the scalar oracle.
//
// Test-only. Serving runs ecg::LaneQrsDetector, which steps several
// patients per SIMD instruction; this one-patient detector is the
// independent reference each lane is proven bit-identical to
// (tests/test_lane_qrs.cpp). It is in turn proven against the batch
// whole-record oracle beside it (support/batch_qrs.hpp, ecg::detect_qrs).
//
// The batch detector re-runs the whole filter chain over its input, so a
// streaming runtime with overlapping windows would pay O(window / stride)
// passes per raw sample. This detector consumes each sample exactly once:
// the band-pass biquads, the five-point derivative's delay line, the
// trailing moving-window integrator, and the adaptive dual thresholds are
// all persistent state, so the amortised cost is O(1) per sample regardless
// of the windowing on top.
//
// Equivalence contract: the whole chain is causal, so feeding a record
// through push() (in chunks of any size) and then finish() yields *bit-
// identical* beats to detect_qrs over the same record — same filter
// arithmetic in the same order, same threshold updates, same raw-signal
// peak localisation, same dedup rule (asserted by
// tests/test_streaming_qrs.cpp). Mid-stream, detection runs a fixed
// lookahead behind the newest sample:
//
//  * the local-max test needs integrated[i+1] (one sample), and the R-peak
//    localisation searches the raw signal up to i + win/4 — so the decision
//    cursor trails the newest sample by max(1, win/4) samples;
//  * a future decision at index i can still place a beat as far back as
//    i - win, so a beat is *final* (no later sample can add one before it)
//    only once the cursor has moved win past it.
//
// Detected beats land in an ecg::BeatRing of (absolute sample index, raw
// amplitude), the same ring the lane detector fills.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ecg/lane_qrs.hpp"
#include "support/biquad_filter.hpp"

namespace svt::ecg {

/// Stateful online Pan-Tompkins detector for one patient stream.
class StreamingQrsDetector {
 public:
  /// Throws std::invalid_argument on a non-positive sampling rate or a
  /// band-pass outside (0, fs/2) — the same rules as the batch chain.
  explicit StreamingQrsDetector(double fs_hz, const PanTompkinsParams& params = {});

  /// Consume a chunk of raw samples (any size, including empty). Confirmed
  /// beats are appended to beats(). Must not be called after finish().
  void push(std::span<const double> samples_mv);

  /// Flush the tail of a finite record: runs the remaining decisions with
  /// the batch detector's end-of-record clamping (and, for records shorter
  /// than the learning period, its shortened-learning thresholds), making
  /// the total beat set bit-identical to detect_qrs over the same record.
  /// Only meaningful for finite records; a live stream never calls this.
  void finish();

  /// Confirmed beats, oldest first, ordered by sample index.
  const BeatRing& beats() const { return beats_; }

  /// Drop confirmed beats before an absolute sample index (stride advance).
  void drop_beats_before(std::int64_t sample_index) { beats_.drop_before(sample_index); }

  /// Samples consumed so far.
  std::int64_t samples_seen() const { return n_; }

  /// Beats with sample_index < final_through() are final: no future sample
  /// can insert, move, or suppress a beat before this bound.
  std::int64_t final_through() const;

  /// Worst-case gap between samples_seen() and final_through(): a window
  /// whose end trails samples_seen() by at least this much is complete.
  std::int64_t finality_lag() const {
    return static_cast<std::int64_t>(win_ + decision_lag_);
  }

  double fs_hz() const { return fs_; }

 private:
  struct HistoryRing {
    void init(std::size_t min_capacity);
    double& at(std::int64_t index) { return buf[static_cast<std::size_t>(index) & mask]; }
    std::vector<double> buf;  ///< Power-of-two capacity, absolute-indexed.
    std::size_t mask = 0;
  };

  void ingest(double x);
  void learn_thresholds(std::int64_t learning);
  void decide(std::int64_t i, std::int64_t raw_end);

  // --- Configuration (fixed at construction) ---------------------------------
  double fs_ = 0.0;
  PanTompkinsParams params_;
  std::size_t win_ = 0;           ///< Integration window length in samples.
  std::size_t refractory_ = 0;    ///< Minimum decision spacing in samples.
  std::int64_t learning_n_ = 0;   ///< Threshold-learning length in samples.
  std::size_t decision_lag_ = 0;  ///< max(1, win/4): lookahead of a decision.

  // --- Filter chain state ----------------------------------------------------
  dsp::BiquadFilter hp_;
  dsp::BiquadFilter lp_;
  double f1_ = 0.0, f2_ = 0.0, f3_ = 0.0, f4_ = 0.0;  ///< Filtered-sample delay line.
  double integ_acc_ = 0.0;         ///< Running trailing-window sum.
  HistoryRing squared_;            ///< Squared derivative (for the subtraction).
  HistoryRing integrated_;         ///< Integrator output (local-max + learning).
  HistoryRing raw_;                ///< Raw samples (R-peak localisation).

  // --- Adaptive thresholds ---------------------------------------------------
  bool thresholds_ready_ = false;
  double spki_ = 0.0;
  double npki_ = 0.0;
  std::int64_t last_peak_idx_ = 0;
  bool have_peak_ = false;
  double last_kept_time_ = 0.0;  ///< Dedup: time of the newest confirmed beat.
  bool have_kept_ = false;

  std::int64_t n_ = 0;       ///< Samples consumed.
  std::int64_t cursor_ = 1;  ///< Next decision index (batch loop starts at 1).
  bool finished_ = false;

  BeatRing beats_;
};

}  // namespace svt::ecg
