// Streaming signal-quality gate: artifact spans + RR outlier screening.
//
// Ward telemetry is not clean ECG: electrode pops, lead motion and cable
// strain produce excursions that the QRS chain happily "detects" as beats,
// and one corrupted minute can poison every overlapping analysis window.
// The gate sits between detection and windowing:
//
//   raw chunk ──> SignalQualityGate::scan  (amplitude / slew thresholds,
//        │         refractory ignore window per hit — an artifact burst
//        │         becomes ONE rejected span, not hundreds of hits)
//        ▼
//   window emission: a window overlapping any rejected span — or whose RR
//   series contains ratio-band outliers — is *annotated* (quality flags on
//   the result) or *suppressed* (not emitted, counted) per policy.
//
// The gate NEVER mutates the sample or feature stream: with annotation
// policy the emitted windows are bit-identical to a gate-less run (only the
// flags differ), and with the gate disabled no per-sample work happens at
// all. Detection state is per-sample sequential (previous sample, refractory
// countdown), so the rejected spans are independent of chunk sizes and of
// which shard runs the stream — the property that keeps 1-worker and
// sharded engines in exact agreement (tests/test_quality.cpp).
//
// RR outlier screening is window-local and purely counting: an interior
// interval whose ratio to BOTH neighbours falls outside the configured band
// is an outlier (ectopy / missed-beat signature). Series shorter than
// min_rr_intervals are not screened — too little context to call anything
// an outlier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace svt::ecg {

/// What to do with a window that trips the quality gate.
enum class QualityPolicy {
  kAnnotate,  ///< Emit it with quality flags set (downstream decides).
  kSuppress,  ///< Do not emit it; count it in windows_suppressed.
};

/// Window-level quality flags (bitmask on results and net decision records).
namespace quality_flags {
inline constexpr std::uint32_t kArtifact = 1u << 0;    ///< Overlaps a rejected span.
inline constexpr std::uint32_t kRrOutliers = 1u << 1;  ///< RR series has ratio-band outliers.
}  // namespace quality_flags

struct QualityConfig {
  /// Off by default: zero per-sample work, bit-identical pipeline.
  bool enable = false;
  /// |sample| above this is an electrode/saturation artifact (<= 0 disables
  /// the amplitude check). Physiologic single-lead ECG stays well under
  /// +-4 mV; rail-hitting pops do not.
  double amp_threshold_mv = 4.0;
  /// |x[n] - x[n-1]| above this is a slew artifact (<= 0 disables): a step
  /// this steep within one sample period is cable strain, not myocardium.
  double slew_threshold_mv = 1.5;
  /// Ignore window after a hit: the burst and its filter ringing become one
  /// span instead of re-triggering per sample (snippet-2 style 1 s hold).
  double refractory_s = 1.0;
  /// RR ratio band: an interior interval with rr[i]/rr[i-1] AND
  /// rr[i]/rr[i+1] both outside [low, high] is an outlier.
  double rr_ratio_low = 0.75;
  double rr_ratio_high = 1.5;
  /// RR series shorter than this are not screened.
  std::size_t min_rr_intervals = 5;
  QualityPolicy policy = QualityPolicy::kAnnotate;
};

/// Cumulative gate counters (monotone; aggregate like the segment-cache
/// stats). A SignalQualityGate counts the scan-side fields; the window-level
/// fields are counted by whoever gates windows (rt::WindowExtractor).
struct QualityStats {
  std::uint64_t artifact_hits = 0;       ///< Threshold crossings (outside refractory).
  std::uint64_t artifact_spans = 0;      ///< Distinct rejected spans opened.
  std::uint64_t rejected_samples = 0;    ///< Samples covered by rejected spans.
  std::uint64_t rr_outliers = 0;         ///< Outlier intervals seen at emission.
  std::uint64_t windows_annotated = 0;   ///< Emitted with non-zero flags.
  std::uint64_t windows_suppressed = 0;  ///< Withheld by kSuppress.

  QualityStats& operator+=(const QualityStats& o) {
    artifact_hits += o.artifact_hits;
    artifact_spans += o.artifact_spans;
    rejected_samples += o.rejected_samples;
    rr_outliers += o.rr_outliers;
    windows_annotated += o.windows_annotated;
    windows_suppressed += o.windows_suppressed;
    return *this;
  }
  /// What was counted since `earlier`, a snapshot of the same counters.
  QualityStats operator-(const QualityStats& earlier) const {
    return {artifact_hits - earlier.artifact_hits,
            artifact_spans - earlier.artifact_spans,
            rejected_samples - earlier.rejected_samples,
            rr_outliers - earlier.rr_outliers,
            windows_annotated - earlier.windows_annotated,
            windows_suppressed - earlier.windows_suppressed};
  }
};

/// Outlier intervals in one window's RR series under `config`'s ratio band
/// (0 when the series is shorter than min_rr_intervals). Pure counting —
/// the series is never modified.
std::size_t count_rr_outliers(std::span<const double> rr_s, const QualityConfig& config);

/// Per-patient streaming gate state. Single-threaded like the extractor
/// that owns it; self-contained (config copy, detection state, span list,
/// counters).
class SignalQualityGate {
 public:
  /// Throws std::invalid_argument, naming the field, on a non-finite or
  /// non-positive fs_hz; a non-finite amp_threshold_mv or
  /// slew_threshold_mv (a finite value <= 0 still disables its check); a
  /// non-finite or negative refractory_s, or a hold longer than 2^53
  /// samples; a non-finite or non-positive rr_ratio_low or rr_ratio_high;
  /// or an inverted RR band.
  SignalQualityGate(const QualityConfig& config, double fs_hz);

  /// Scan one chunk whose first sample has absolute stream index
  /// `base_index` (samples pushed before it). Chunks must arrive in stream
  /// order; chunk boundaries do not affect the resulting spans.
  void scan(std::span<const double> samples_mv, std::int64_t base_index);

  /// Whether [begin, end) (absolute sample indices) overlaps any rejected
  /// span recorded so far.
  bool overlaps_artifact(std::int64_t begin, std::int64_t end) const;

  /// Drop spans ending at or before `bound` — windows never look behind the
  /// extractor's retained-beat horizon, so neither need the spans.
  void drop_spans_before(std::int64_t bound);

  const QualityConfig& config() const { return config_; }
  /// Scan-side counters of this stream (artifact_*, rejected_samples); the
  /// window-level fields stay 0.
  const QualityStats& stats() const { return stats_; }
  std::size_t live_spans() const { return spans_.size(); }

 private:
  struct Span {
    std::int64_t begin = 0;
    std::int64_t end = 0;  ///< Exclusive.
  };

  QualityConfig config_;
  std::int64_t refractory_samples_ = 0;
  std::int64_t refractory_left_ = 0;
  double prev_sample_ = 0.0;
  bool has_prev_ = false;
  std::vector<Span> spans_;  ///< Sorted, disjoint; appended at the tail.
  QualityStats stats_;
};

}  // namespace svt::ecg
