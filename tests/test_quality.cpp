// Signal-quality gate: the per-sample detector must be chunk-boundary
// independent (the property that keeps 1-worker and sharded engines in
// exact agreement), a burst must collapse into ONE rejected span via the
// refractory hold, RR outlier screening is window-local counting, and at
// the engine level: annotate policy leaves every decision bit-identical to
// a gate-less run (only the flags differ), suppress policy withholds
// exactly the flagged window positions, and the single-threaded and
// sharded engines agree on results AND gate counters at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "ecg/ecg_synth.hpp"
#include "ecg/quality.hpp"
#include "rt/sharded_classifier.hpp"
#include "rt/stream_classifier.hpp"
#include "support/fixtures.hpp"

namespace svt {
namespace {

using namespace test;

// ---------------------------------------------------------------------------
// Gate unit behaviour.

ecg::QualityConfig gate_config() {
  ecg::QualityConfig config;
  config.enable = true;
  config.amp_threshold_mv = 4.0;
  config.slew_threshold_mv = 1.5;
  config.refractory_s = 1.0;
  return config;
}

TEST(SignalQualityGate, RejectsBadConstruction) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double fs : {0.0, -250.0, nan})
    EXPECT_THROW(ecg::SignalQualityGate(gate_config(), fs), std::invalid_argument) << fs;
  auto inverted = gate_config();
  inverted.rr_ratio_low = 2.0;
  inverted.rr_ratio_high = 0.5;
  EXPECT_THROW(ecg::SignalQualityGate(inverted, 250.0), std::invalid_argument);

  // Values the gate compares or casts: a NaN threshold would switch its
  // check off, a non-finite, negative or > 2^53-sample hold would be
  // clamped to no hold at all, and a NaN or non-positive ratio bound would
  // pass the inverted-band check.
  using Field = double ecg::QualityConfig::*;
  const std::vector<std::pair<Field, double>> bad = {
      {&ecg::QualityConfig::amp_threshold_mv, nan},
      {&ecg::QualityConfig::amp_threshold_mv, inf},
      {&ecg::QualityConfig::amp_threshold_mv, -inf},
      {&ecg::QualityConfig::slew_threshold_mv, nan},
      {&ecg::QualityConfig::slew_threshold_mv, inf},
      {&ecg::QualityConfig::refractory_s, inf},
      {&ecg::QualityConfig::refractory_s, nan},
      {&ecg::QualityConfig::refractory_s, 1e300},
      {&ecg::QualityConfig::refractory_s, -1.0},
      {&ecg::QualityConfig::rr_ratio_low, nan},
      {&ecg::QualityConfig::rr_ratio_low, 0.0},
      {&ecg::QualityConfig::rr_ratio_low, -0.5},
      {&ecg::QualityConfig::rr_ratio_high, nan},
      {&ecg::QualityConfig::rr_ratio_high, inf},
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    auto config = gate_config();
    config.*bad[i].first = bad[i].second;
    EXPECT_THROW(ecg::SignalQualityGate(config, 250.0), std::invalid_argument) << "case " << i;
    // The extractor validates the gate config up front, so every engine
    // rejects it at construction.
    rt::StreamConfig stream = short_window_config();
    stream.quality = config;
    EXPECT_THROW(rt::WindowExtractor{stream}, std::invalid_argument) << "case " << i;
  }

  // Still accepted: a threshold <= 0 disables its check, and a zero hold.
  auto lenient = gate_config();
  lenient.amp_threshold_mv = 0.0;
  lenient.slew_threshold_mv = -1.0;
  lenient.refractory_s = 0.0;
  EXPECT_NO_THROW(ecg::SignalQualityGate(lenient, 250.0));
}

TEST(SignalQualityGate, BurstBecomesOneSpanUnderRefractoryHold) {
  const double fs = 100.0;
  ecg::SignalQualityGate gate(gate_config(), fs);
  // 5 s of clean baseline, then a 0.5 s rail-hitting burst: every burst
  // sample exceeds the amplitude threshold, but the 1 s refractory hold
  // must merge them into a single span.
  std::vector<double> signal(static_cast<std::size_t>(5.0 * fs), 0.0);
  for (int i = 0; i < 50; ++i) signal.push_back(8.0);
  signal.resize(signal.size() + 300, 0.0);
  gate.scan(signal, 0);
  EXPECT_EQ(gate.stats().artifact_spans, 1u);
  EXPECT_EQ(gate.stats().artifact_hits, 1u);  // Later burst samples are held.
  // The span covers the hit plus the refractory window.
  EXPECT_TRUE(gate.overlaps_artifact(500, 501));
  EXPECT_TRUE(gate.overlaps_artifact(595, 596));
  EXPECT_FALSE(gate.overlaps_artifact(0, 500));
  EXPECT_FALSE(gate.overlaps_artifact(602, 700));
}

TEST(SignalQualityGate, SlewCheckCatchesStepsWithinThreshold) {
  ecg::SignalQualityGate gate(gate_config(), 250.0);
  // In-range amplitudes, but a 2 mV single-sample step: slew artifact.
  const std::vector<double> signal = {0.0, 0.1, 0.2, 2.2, 2.3};
  gate.scan(signal, 0);
  EXPECT_EQ(gate.stats().artifact_hits, 1u);
  EXPECT_TRUE(gate.overlaps_artifact(3, 4));
  EXPECT_FALSE(gate.overlaps_artifact(0, 3));
}

TEST(SignalQualityGate, ChunkBoundariesDoNotChangeSpans) {
  const double fs = 250.0;
  std::mt19937_64 rng(31);
  std::normal_distribution<double> noise(0.0, 0.4);
  std::vector<double> signal(static_cast<std::size_t>(20.0 * fs));
  for (auto& v : signal) v = noise(rng);
  // Sprinkle artifacts: amplitude pops and slew steps at known offsets.
  for (const std::size_t at : {std::size_t{400}, std::size_t{1900}, std::size_t{3050}})
    signal[at] = 9.0;

  ecg::SignalQualityGate whole(gate_config(), fs);
  whole.scan(signal, 0);

  // The same stream fed one sample at a time (the most adversarial split)
  // and in odd-sized chunks must produce identical spans and counters.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{97}, std::size_t{1024}}) {
    ecg::SignalQualityGate split(gate_config(), fs);
    for (std::size_t off = 0; off < signal.size(); off += chunk) {
      const std::size_t n = std::min(chunk, signal.size() - off);
      split.scan(std::span(signal).subspan(off, n), static_cast<std::int64_t>(off));
    }
    EXPECT_EQ(split.stats().artifact_hits, whole.stats().artifact_hits) << "chunk " << chunk;
    EXPECT_EQ(split.stats().artifact_spans, whole.stats().artifact_spans) << "chunk " << chunk;
    EXPECT_EQ(split.stats().rejected_samples, whole.stats().rejected_samples)
        << "chunk " << chunk;
    for (std::int64_t begin = 0; begin < static_cast<std::int64_t>(signal.size());
         begin += 250) {
      EXPECT_EQ(split.overlaps_artifact(begin, begin + 250),
                whole.overlaps_artifact(begin, begin + 250))
          << "chunk " << chunk << " begin " << begin;
    }
  }
}

TEST(SignalQualityGate, DropSpansBeforeKeepsLiveSpans) {
  ecg::SignalQualityGate gate(gate_config(), 100.0);
  std::vector<double> signal(1000, 0.0);
  signal[100] = 9.0;  // Span [100, 201).
  signal[700] = 9.0;  // Span [700, 801).
  gate.scan(signal, 0);
  ASSERT_EQ(gate.live_spans(), 2u);
  gate.drop_spans_before(300);
  EXPECT_EQ(gate.live_spans(), 1u);
  EXPECT_FALSE(gate.overlaps_artifact(100, 200));  // Dropped span forgotten.
  EXPECT_TRUE(gate.overlaps_artifact(750, 760));
  // Dropping never truncates a still-live span.
  gate.drop_spans_before(750);
  EXPECT_EQ(gate.live_spans(), 1u);
  gate.drop_spans_before(801);
  EXPECT_EQ(gate.live_spans(), 0u);
}

TEST(RrOutliers, CountsIsolatedSpikesOnly) {
  ecg::QualityConfig config = gate_config();
  config.min_rr_intervals = 5;

  // A clean sinus tachogram has no ratio-band outliers.
  EXPECT_EQ(ecg::count_rr_outliers(std::vector<double>(10, 0.8), config), 0u);

  // One isolated short interval (an ectopic beat): outside the band against
  // BOTH neighbours.
  EXPECT_EQ(ecg::count_rr_outliers(std::vector<double>{0.8, 0.8, 0.4, 0.8, 0.8}, config), 1u);

  // A sustained rate change disagrees with one neighbour only: not an
  // outlier (that is rhythm, not artifact).
  EXPECT_EQ(ecg::count_rr_outliers(std::vector<double>{0.8, 0.8, 0.5, 0.5, 0.5}, config), 0u);

  // Series shorter than min_rr_intervals are not screened.
  EXPECT_EQ(ecg::count_rr_outliers(std::vector<double>{0.8, 0.4, 0.8, 0.8}, config), 0u);

  // A non-positive neighbour is skipped, not divided by (0.9/0.0 would
  // otherwise read as an infinite-ratio outlier).
  EXPECT_EQ(ecg::count_rr_outliers(std::vector<double>{0.0, 0.9, 0.8, 0.8, 0.8}, config), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level parity.

rt::StreamConfig quality_stream_config(ecg::QualityPolicy policy) {
  rt::StreamConfig config = short_window_config();
  config.quality = gate_config();
  config.quality.policy = policy;
  return config;
}

/// A ward where patients 2 and 3 carry injected electrode-pop bursts (rail
/// amplitude for ~0.2 s) at known times; patients 1 and 5 stay clean.
std::map<int, ecg::EcgWaveform> make_dirty_ward() {
  std::map<int, ecg::EcgWaveform> ward;
  int seed = 60;
  for (int pid : {1, 2, 3, 5}) ward[pid] = synth_ecg(55.0, static_cast<std::uint64_t>(seed++));
  for (const int pid : {2, 3}) {
    auto& samples = ward[pid].samples_mv;
    for (const double at_s : {12.0, 31.5}) {
      const auto at = static_cast<std::size_t>(at_s * 250.0);
      for (std::size_t i = 0; i < 50 && at + i < samples.size(); ++i) samples[at + i] = 8.5;
    }
  }
  return ward;
}

void expect_same_results(const std::vector<rt::WindowResult>& got,
                         const std::vector<rt::WindowResult>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].patient_id, want[i].patient_id) << what << " window " << i;
    EXPECT_EQ(got[i].start_s, want[i].start_s) << what << " window " << i;
    EXPECT_EQ(got[i].decision_value, want[i].decision_value) << what << " window " << i;
    EXPECT_EQ(got[i].label, want[i].label) << what << " window " << i;
    EXPECT_EQ(got[i].quality, want[i].quality) << what << " window " << i;
  }
}

TEST(QualityGateEngine, AnnotatePolicyFlagsDirtyWindowsWithoutChangingDecisions) {
  const auto ward = make_dirty_ward();

  // Gate off: the baseline decisions.
  rt::StreamConfig off_config = quality_stream_config(ecg::QualityPolicy::kAnnotate);
  off_config.quality.enable = false;
  rt::StreamClassifier baseline(servable(), off_config);
  for (const auto& [pid, wf] : ward) baseline.push_samples(pid, wf.samples_mv);
  const auto plain = baseline.flush();
  ASSERT_FALSE(plain.empty());

  // Gate on, annotate: same windows, same decisions, only flags differ.
  rt::StreamClassifier gated(servable(), quality_stream_config(ecg::QualityPolicy::kAnnotate));
  for (const auto& [pid, wf] : ward) gated.push_samples(pid, wf.samples_mv);
  const auto flagged = gated.flush();
  ASSERT_EQ(flagged.size(), plain.size());
  std::size_t artifact_windows = 0;
  std::size_t flagged_windows = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (flagged[i].quality != 0) ++flagged_windows;
    EXPECT_EQ(flagged[i].patient_id, plain[i].patient_id);
    EXPECT_EQ(flagged[i].start_s, plain[i].start_s);
    EXPECT_EQ(flagged[i].decision_value, plain[i].decision_value) << "window " << i;
    EXPECT_EQ(flagged[i].label, plain[i].label);
    EXPECT_EQ(plain[i].quality, 0u);  // Gate off: never flagged.
    if ((flagged[i].quality & ecg::quality_flags::kArtifact) != 0) {
      ++artifact_windows;
      // Only the dirty patients carry artifact flags.
      EXPECT_TRUE(flagged[i].patient_id == 2 || flagged[i].patient_id == 3)
          << "patient " << flagged[i].patient_id;
    }
  }
  EXPECT_GT(artifact_windows, 0u);
  const auto stats = gated.stats().quality;
  // One workload: one result per window position.
  EXPECT_EQ(stats.windows_annotated, flagged_windows);
  EXPECT_EQ(stats.windows_suppressed, 0u);
  EXPECT_GE(stats.artifact_spans, 4u);  // 2 bursts x 2 patients.
}

TEST(QualityGateEngine, SuppressPolicyWithholdsExactlyTheFlaggedPositions) {
  const auto ward = make_dirty_ward();

  rt::StreamClassifier annotate(servable(), quality_stream_config(ecg::QualityPolicy::kAnnotate));
  for (const auto& [pid, wf] : ward) annotate.push_samples(pid, wf.samples_mv);
  const auto flagged = annotate.flush();

  rt::StreamClassifier suppress(servable(), quality_stream_config(ecg::QualityPolicy::kSuppress));
  for (const auto& [pid, wf] : ward) suppress.push_samples(pid, wf.samples_mv);
  const auto kept = suppress.flush();

  // Suppress emits exactly the annotate run's clean windows, bit-identically.
  std::vector<rt::WindowResult> clean;
  for (const auto& r : flagged)
    if (r.quality == 0) clean.push_back(r);
  expect_same_results(kept, clean, "suppress vs annotate-clean");
  EXPECT_EQ(suppress.stats().quality.windows_suppressed,
            annotate.stats().quality.windows_annotated);
  EXPECT_EQ(suppress.stats().quality.windows_annotated, 0u);
}

TEST(QualityGateEngine, ShardedMatchesSingleThreadedGateExactly) {
  const auto ward = make_dirty_ward();
  for (const auto policy : {ecg::QualityPolicy::kAnnotate, ecg::QualityPolicy::kSuppress}) {
    rt::StreamClassifier reference(servable(), quality_stream_config(policy));
    for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
    auto want = reference.flush();
    const auto want_stats = reference.stats().quality;
    ASSERT_GT(want_stats.artifact_spans, 0u);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      Collector collector;
      rt::ShardedStreamClassifier sharded(default_registry(), quality_stream_config(policy),
                                          engine_options(workers, collector.sink()));
      push_interleaved(sharded, ward, 733);
      sharded.flush();
      EXPECT_TRUE(collector.time_ordered);
      const auto got = collector.all();
      // all() orders by patient, then time; match the reference.
      std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
        return a.patient_id != b.patient_id ? a.patient_id < b.patient_id
                                            : a.start_s < b.start_s;
      });
      expect_same_results(got, want, workers == 1 ? "1 worker" : "4 workers");

      const auto got_stats = sharded.stats().quality;
      EXPECT_EQ(got_stats.artifact_hits, want_stats.artifact_hits);
      EXPECT_EQ(got_stats.artifact_spans, want_stats.artifact_spans);
      EXPECT_EQ(got_stats.rejected_samples, want_stats.rejected_samples);
      EXPECT_EQ(got_stats.rr_outliers, want_stats.rr_outliers);
      EXPECT_EQ(got_stats.windows_annotated, want_stats.windows_annotated);
      EXPECT_EQ(got_stats.windows_suppressed, want_stats.windows_suppressed);
    }
  }
}

TEST(QualityGateEngine, CleanSignalIsNeverFlagged) {
  const auto wf = synth_ecg(55.0, 99);
  rt::StreamClassifier gated(servable(), quality_stream_config(ecg::QualityPolicy::kSuppress));
  gated.push_samples(1, wf.samples_mv);
  const auto results = gated.flush();
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) EXPECT_EQ(r.quality, 0u);
  EXPECT_EQ(gated.stats().quality.windows_annotated, 0u);
  EXPECT_EQ(gated.stats().quality.windows_suppressed, 0u);
  EXPECT_EQ(gated.stats().quality.artifact_spans, 0u);
}

}  // namespace
}  // namespace svt
