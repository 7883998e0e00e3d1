// StreamClassifier: window boundaries under the incremental extractor
// (partial windows, overlap, emission lag, end-of-stream), chunk-size
// invariance, multi-patient isolation, agreement with the underlying
// tailored detector, and where a classify-step failure surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/tailoring.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/sharded_classifier.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/workload.hpp"
#include "support/fixtures.hpp"

namespace svt {
namespace {

using namespace test;

TEST(StreamClassifier, RejectsBadConfig) {
  auto config = short_window_config();
  config.stride_s = 25.0;  // > window_s.
  EXPECT_THROW(rt::StreamClassifier(servable(), config), std::invalid_argument);
  config = short_window_config();
  config.fs_hz = 0.0;
  EXPECT_THROW(rt::StreamClassifier(servable(), config), std::invalid_argument);
}

TEST(StreamClassifier, WindowBoundariesWithOverlap) {
  const auto config = short_window_config();
  rt::StreamClassifier sc(servable(), config);
  const auto wf = synth_ecg(65.0, 1);
  const std::size_t n = wf.samples_mv.size();
  ASSERT_GT(n, sc.window_samples());

  sc.push_samples(1, wf.samples_mv);
  // Every full window was either queued or rejected; the remainder (less
  // than one stride past the last emitted window) stays buffered.
  const std::size_t expected =
      (n - sc.window_samples()) / sc.stride_samples() + 1;
  EXPECT_EQ(sc.pending_windows() + sc.stats().rejected_windows, expected);
  EXPECT_EQ(sc.buffered_samples(1), n - expected * sc.stride_samples());
  // A healthy synthetic ECG yields beats in every window: nothing rejected.
  EXPECT_EQ(sc.stats().rejected_windows, 0u);

  const auto results = sc.flush();
  ASSERT_EQ(results.size(), expected);
  EXPECT_EQ(sc.pending_windows(), 0u);
  for (std::size_t w = 0; w < results.size(); ++w) {
    EXPECT_EQ(results[w].patient_id, 1);
    EXPECT_DOUBLE_EQ(results[w].start_s, 10.0 * static_cast<double>(w));
    EXPECT_TRUE(results[w].label == 1 || results[w].label == -1);
    EXPECT_GE(results[w].num_beats, sc.config().min_beats);
  }
}

TEST(StreamClassifier, PartialWindowEmitsNothing) {
  rt::StreamClassifier sc(servable(), short_window_config());
  const auto wf = synth_ecg(30.0, 2);
  // A window classifies once the incremental detector's finality frontier
  // passes its end: window_samples + emission_lag_samples pushed samples.
  const std::size_t due = sc.window_samples() + sc.emission_lag_samples();
  std::span<const double> samples(wf.samples_mv);
  ASSERT_GT(samples.size(), due);
  // One sample short: nothing may be emitted yet.
  sc.push_samples(7, samples.first(due - 1));
  EXPECT_EQ(sc.pending_windows() + sc.stats().rejected_windows, 0u);
  EXPECT_EQ(sc.buffered_samples(7), due - 1);
  // The missing sample completes the window.
  sc.push_samples(7, samples.subspan(due - 1, 1));
  EXPECT_EQ(sc.pending_windows() + sc.stats().rejected_windows, 1u);
}

TEST(StreamClassifier, ChunkSizeDoesNotChangeResults) {
  const auto wf = synth_ecg(65.0, 3);
  rt::StreamClassifier whole(servable(), short_window_config());
  whole.push_samples(1, wf.samples_mv);
  const auto expected = whole.flush();

  rt::StreamClassifier chunked(servable(), short_window_config());
  std::span<const double> rest(wf.samples_mv);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(997, rest.size());
    chunked.push_samples(1, rest.first(n));
    rest = rest.subspan(n);
  }
  const auto got = chunked.flush();

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t w = 0; w < got.size(); ++w) {
    EXPECT_DOUBLE_EQ(got[w].start_s, expected[w].start_s);
    EXPECT_DOUBLE_EQ(got[w].decision_value, expected[w].decision_value);
    EXPECT_EQ(got[w].label, expected[w].label);
    EXPECT_EQ(got[w].num_beats, expected[w].num_beats);
  }
}

TEST(StreamClassifier, EndStreamClassifiesHeldBackTailWindows) {
  rt::StreamClassifier sc(servable(), short_window_config());
  const auto wf = synth_ecg(65.0, 9);
  // Trim so the final window ends exactly at the last sample.
  const std::size_t total = sc.window_samples() + 4 * sc.stride_samples();
  ASSERT_LE(total, wf.samples_mv.size());
  sc.push_samples(5, std::span(wf.samples_mv).first(total));
  const std::size_t live = sc.pending_windows() + sc.stats().rejected_windows;
  EXPECT_LT(live, 5u);  // The trailing window is held back by the lag.
  ASSERT_TRUE(sc.end_stream(5));
  EXPECT_FALSE(sc.end_stream(5));  // Stream state is gone.
  EXPECT_EQ(sc.num_patients(), 0u);
  // Every full window of the finite record is now accounted for.
  EXPECT_EQ(sc.pending_windows() + sc.stats().rejected_windows, 5u);
  const auto results = sc.flush();
  EXPECT_EQ(results.size() + sc.stats().rejected_windows, 5u);
  for (const auto& r : results) EXPECT_EQ(r.label, r.decision_value >= 0.0 ? 1 : -1);
}

TEST(StreamClassifier, MultiPatientStreamsAreIsolated) {
  const auto wf_a = synth_ecg(65.0, 4);
  const auto wf_b = synth_ecg(65.0, 5);

  // Reference: each patient classified through its own dedicated stream.
  std::vector<std::vector<rt::WindowResult>> solo;
  for (const auto* wf : {&wf_a, &wf_b}) {
    rt::StreamClassifier sc(servable(), short_window_config());
    sc.push_samples(0, wf->samples_mv);
    solo.push_back(sc.flush());
  }

  // Interleave both patients through one classifier in small chunks.
  rt::StreamClassifier shared(servable(), short_window_config());
  std::span<const double> rest_a(wf_a.samples_mv), rest_b(wf_b.samples_mv);
  while (!rest_a.empty() || !rest_b.empty()) {
    if (!rest_a.empty()) {
      const std::size_t n = std::min<std::size_t>(1250, rest_a.size());
      shared.push_samples(1, rest_a.first(n));
      rest_a = rest_a.subspan(n);
    }
    if (!rest_b.empty()) {
      const std::size_t n = std::min<std::size_t>(730, rest_b.size());
      shared.push_samples(2, rest_b.first(n));
      rest_b = rest_b.subspan(n);
    }
  }
  EXPECT_EQ(shared.num_patients(), 2u);
  const auto mixed = shared.flush();

  for (int pid : {1, 2}) {
    std::vector<rt::WindowResult> mine;
    for (const auto& r : mixed)
      if (r.patient_id == pid) mine.push_back(r);
    const auto& want = solo[static_cast<std::size_t>(pid - 1)];
    ASSERT_EQ(mine.size(), want.size()) << "patient " << pid;
    for (std::size_t w = 0; w < mine.size(); ++w) {
      EXPECT_DOUBLE_EQ(mine[w].start_s, want[w].start_s);
      // Bit-exact: batch composition must not leak across patients.
      EXPECT_EQ(mine[w].decision_value, want[w].decision_value);
      EXPECT_EQ(mine[w].label, want[w].label);
    }
  }
}

TEST(StreamClassifier, AgreesWithDetectorPerWindow) {
  // The streamed fixed-point labels must equal what TailoredDetector
  // produces on the same extracted windows (same front half, batched back
  // half bit-exact vs the per-window engine).
  const auto wf = synth_ecg(45.0, 6);
  rt::StreamClassifier sc(servable(), short_window_config());
  sc.push_samples(1, wf.samples_mv);
  const auto results = sc.flush();
  ASSERT_FALSE(results.empty());
  ASSERT_TRUE(detector().quantized().has_value());
  for (const auto& r : results) {
    EXPECT_TRUE(r.label == 1 || r.label == -1);
    EXPECT_EQ(r.label, r.decision_value >= 0.0 ? 1 : -1);
  }
}

TEST(StreamClassifier, FloatDetectorPath) {
  // A float-only detector (no quantised engine) routes through PackedModel.
  const auto wf = synth_ecg(45.0, 8);
  rt::StreamClassifier sc(float_servable(), short_window_config());
  sc.push_samples(3, wf.samples_mv);
  const auto results = sc.flush();
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) EXPECT_EQ(r.label, r.decision_value >= 0.0 ? 1 : -1);
}

TEST(StreamClassifier, SelectionPastWorkloadFeaturesThrowsFromFlush) {
  // Rows are prepared in the classify step, so a model that selects
  // features its workload does not produce (the 53-feature seizure model
  // serving the 3-feature AF workload) fails at flush() in both engines,
  // never at push. The failed windows are dropped and the engine stays
  // usable.
  auto config = short_window_config();
  config.workloads = {rt::af_workload()};
  const auto wf = synth_ecg(45.0, 12);

  rt::StreamClassifier sc(rt::synthetic_full_feature_model(), config);
  sc.push_samples(1, wf.samples_mv);
  ASSERT_GT(sc.pending_windows(), 0u);
  EXPECT_THROW(sc.flush(), std::invalid_argument);
  EXPECT_EQ(sc.pending_windows(), 0u);
  EXPECT_TRUE(sc.flush().empty());
  EXPECT_EQ(sc.stats().delivered_windows, 0u);

  Collector collector;
  rt::ShardedStreamClassifier sharded(
      std::make_shared<rt::ModelRegistry>(rt::synthetic_full_feature_model()), config,
      engine_options(2, collector.sink()));
  sharded.push_samples(1, wf.samples_mv);
  EXPECT_THROW(sharded.flush(), std::invalid_argument);
  EXPECT_TRUE(collector.per_patient.empty());
}

}  // namespace
}  // namespace svt
