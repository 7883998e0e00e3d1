// StreamingQrsDetector: bit-exact parity with the batch Pan-Tompkins
// detector over whole records under any chunking, finality-frontier
// semantics, beat-ring maintenance, and the WindowExtractor built on top.
//
// Parity oracle: per-window beat counts and RR-derived features (HRV +
// Lorentz) are checked bit-identical to an independent reference over ONE
// continuous detection of the whole record — NOT to the seed extractor's
// per-window re-detection, whose window-local threshold re-learning the
// incremental engine deliberately abandons (see docs/runtime.md,
// "Semantics change"). The reference rebuilds each window's RR intervals
// from integer sample-index differences, as features::SegmentFeatureCache
// specifies; the EDR-derived features and the cache's own parity oracle
// live in tests/test_rt_feature_cache.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <vector>

#include "features/hrv_features.hpp"
#include "features/lorentz_features.hpp"
#include "rt/window_extractor.hpp"
#include "support/batch_qrs.hpp"
#include "support/fixtures.hpp"
#include "support/streaming_qrs.hpp"

namespace svt {
namespace {

using namespace test;

/// Feed a waveform through a streaming detector in pseudo-random chunks.
void push_chunked(ecg::StreamingQrsDetector& detector, const ecg::EcgWaveform& wf,
                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> chunk_dist(1, 700);
  std::span<const double> rest(wf.samples_mv);
  while (!rest.empty()) {
    const std::size_t n = std::min(chunk_dist(rng), rest.size());
    detector.push(rest.first(n));
    rest = rest.subspan(n);
  }
}

void expect_beats_equal_batch(const ecg::StreamingQrsDetector& detector,
                              const ecg::QrsDetection& batch, double fs) {
  const auto& ring = detector.beats();
  ASSERT_EQ(ring.size(), batch.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    // Bit-exact: same raw-sample index, hence the identical time double.
    EXPECT_EQ(static_cast<double>(ring[i].sample_index) / fs, batch.r_peak_times_s[i]) << i;
    EXPECT_EQ(ring[i].amplitude_mv, batch.r_amplitudes_mv[i]) << i;
  }
}

TEST(StreamingQrsDetector, BitExactVsBatchOnWholeRecords) {
  for (const std::uint64_t seed : {11u, 23u, 31u}) {
    const auto wf = synth_ecg(60.0, seed);
    const auto batch = ecg::detect_qrs(wf);
    ASSERT_GT(batch.size(), 40u) << "seed " << seed;

    ecg::StreamingQrsDetector streaming(wf.fs_hz);
    push_chunked(streaming, wf, seed + 1000);
    streaming.finish();
    expect_beats_equal_batch(streaming, batch, wf.fs_hz);
  }
}

TEST(StreamingQrsDetector, ChunkSizeDoesNotChangeBeats) {
  const auto wf = synth_ecg(45.0, 5);
  ecg::StreamingQrsDetector whole(wf.fs_hz);
  whole.push(wf.samples_mv);
  whole.finish();

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{37}, std::size_t{997}}) {
    ecg::StreamingQrsDetector chunked(wf.fs_hz);
    std::span<const double> rest(wf.samples_mv);
    while (!rest.empty()) {
      const std::size_t n = std::min(chunk, rest.size());
      chunked.push(rest.first(n));
      rest = rest.subspan(n);
    }
    chunked.finish();
    ASSERT_EQ(chunked.beats().size(), whole.beats().size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < whole.beats().size(); ++i) {
      EXPECT_EQ(chunked.beats()[i].sample_index, whole.beats()[i].sample_index);
      EXPECT_EQ(chunked.beats()[i].amplitude_mv, whole.beats()[i].amplitude_mv);
    }
  }
}

TEST(StreamingQrsDetector, RecordShorterThanLearningPeriod) {
  // 1.2 s < the 2 s learning period: finish() must replicate the batch
  // detector's shrunken learning head.
  const auto wf = synth_ecg(1.2, 7);
  const auto batch = ecg::detect_qrs(wf);
  ecg::StreamingQrsDetector streaming(wf.fs_hz);
  streaming.push(wf.samples_mv);
  streaming.finish();
  expect_beats_equal_batch(streaming, batch, wf.fs_hz);
}

TEST(StreamingQrsDetector, FinalityFrontierNeverRecants) {
  // Beats before final_through() must never change as more samples arrive.
  const auto wf = synth_ecg(30.0, 13);
  ecg::StreamingQrsDetector streaming(wf.fs_hz);
  std::vector<ecg::Beat> finalized;
  std::span<const double> rest(wf.samples_mv);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(333, rest.size());
    streaming.push(rest.first(n));
    rest = rest.subspan(n);
    const auto frontier = streaming.final_through();
    const auto& ring = streaming.beats();
    std::size_t final_count = 0;
    while (final_count < ring.size() && ring[final_count].sample_index < frontier)
      ++final_count;
    ASSERT_GE(final_count, finalized.size()) << "frontier moved backwards";
    for (std::size_t i = 0; i < finalized.size(); ++i) {
      EXPECT_EQ(ring[i].sample_index, finalized[i].sample_index);
      EXPECT_EQ(ring[i].amplitude_mv, finalized[i].amplitude_mv);
    }
    finalized.clear();
    for (std::size_t i = 0; i < final_count; ++i) finalized.push_back(ring[i]);
  }
  EXPECT_LE(streaming.samples_seen() - streaming.final_through(), streaming.finality_lag());
}

TEST(StreamingQrsDetector, BeatRingDropAndGrow) {
  ecg::BeatRing ring;
  for (std::int64_t i = 0; i < 100; ++i) ring.push_back({i * 10, static_cast<double>(i)});
  ASSERT_EQ(ring.size(), 100u);
  ring.drop_before(500);  // Drops indices 0..490 (49 + 1 beats at < 500).
  ASSERT_EQ(ring.size(), 50u);
  EXPECT_EQ(ring[0].sample_index, 500);
  for (std::int64_t i = 100; i < 200; ++i) ring.push_back({i * 10, 0.0});
  EXPECT_EQ(ring.size(), 150u);
  EXPECT_EQ(ring[149].sample_index, 1990);
}

// --- WindowExtractor on the streaming detector -------------------------------

/// Independent reference for one window [start, start + W): its beat count
/// and its RR-derived features (the first kNumHrvFeatures +
/// kNumLorentzFeatures of the raw vector) from the allocating feature path.
/// An interval (n_i - n_{i-1}) / fs, over absolute integer sample indices,
/// belongs to the window when its ending beat lies inside it and its
/// opening beat lies at or after both the window start and the start of
/// the stride before the ending beat's stride (the chunk's left-context
/// horizon in features::SegmentFeatureCache).
struct RrReference {
  std::size_t num_beats = 0;
  std::vector<double> features;
};

RrReference reference_rr_features(const std::vector<ecg::Beat>& beats, std::int64_t start,
                                  std::int64_t window, std::int64_t stride, double fs) {
  RrReference ref;
  std::vector<double> rr_s;
  for (std::size_t i = 0; i < beats.size(); ++i) {
    const std::int64_t n = beats[i].sample_index;
    if (n < start || n >= start + window) continue;
    ++ref.num_beats;
    if (i == 0) continue;
    const std::int64_t prev = beats[i - 1].sample_index;
    if (prev >= std::max(start, (n / stride - 1) * stride))
      rr_s.push_back(static_cast<double>(n - prev) / fs);
  }
  features::FeatureScratch scratch;
  ref.features.resize(features::kNumHrvFeatures + features::kNumLorentzFeatures);
  const std::span<double> out(ref.features);
  features::compute_hrv_features(rr_s, scratch, out.first(features::kNumHrvFeatures));
  features::compute_lorentz_features(rr_s, scratch, out.subspan(features::kNumHrvFeatures));
  return ref;
}

void expect_matches_reference(const rt::ExtractedWindow& w, const std::vector<ecg::Beat>& beats,
                              const rt::WindowExtractor& extractor, double fs) {
  const auto start = static_cast<std::int64_t>(std::llround(w.start_s * fs));
  const auto want =
      reference_rr_features(beats, start, static_cast<std::int64_t>(extractor.window_samples()),
                            static_cast<std::int64_t>(extractor.stride_samples()), fs);
  EXPECT_EQ(w.num_beats, want.num_beats) << "window " << w.start_s;
  ASSERT_LE(want.features.size(), w.features_view().size());
  for (std::size_t j = 0; j < want.features.size(); ++j)
    EXPECT_EQ(w.raw_features[j], want.features[j]) << "feature " << j << " window " << w.start_s;
}

TEST(WindowExtractor, WindowsBitIdenticalToBatchReference) {
  const auto wf = synth_ecg(95.0, 21);
  rt::StreamConfig config;
  config.fs_hz = wf.fs_hz;
  config.window_s = 20.0;
  config.stride_s = 10.0;

  // Continuous reference beats: the streaming detector over the whole
  // record (bit-exact vs batch detect_qrs by the tests above), no windowing.
  ecg::StreamingQrsDetector reference(wf.fs_hz);
  reference.push(wf.samples_mv);
  std::vector<ecg::Beat> beats;
  for (std::size_t i = 0; i < reference.beats().size(); ++i)
    beats.push_back(reference.beats()[i]);

  rt::WindowExtractor extractor(config);
  std::vector<rt::ExtractedWindow> windows;
  std::span<const double> rest(wf.samples_mv);
  while (!rest.empty()) {  // Chunked push: window boundaries cross chunks.
    const std::size_t n = std::min<std::size_t>(777, rest.size());
    extractor.push_samples(4, rest.first(n),
                           [&windows](rt::ExtractedWindow&& w) { windows.push_back(w); });
    rest = rest.subspan(n);
  }

  // Every window whose end the finality frontier passed must have emitted.
  const auto total = static_cast<std::int64_t>(wf.samples_mv.size());
  const auto lag = static_cast<std::int64_t>(extractor.emission_lag_samples());
  const auto window = static_cast<std::int64_t>(extractor.window_samples());
  const auto stride = static_cast<std::int64_t>(extractor.stride_samples());
  const std::size_t expected =
      total - lag >= window
          ? static_cast<std::size_t>((total - lag - window) / stride) + 1
          : 0;
  ASSERT_EQ(windows.size() + extractor.stats().rejected_windows, expected);
  ASSERT_GT(windows.size(), 5u);

  for (const auto& w : windows) expect_matches_reference(w, beats, extractor, config.fs_hz);
}

TEST(WindowExtractor, ScratchReuseAcrossInterleavedPatients) {
  // One extractor (one shared FeatureScratch) serving interleaved patients
  // must produce the same windows as a dedicated extractor per patient.
  const auto wf_a = synth_ecg(50.0, 31);
  const auto wf_b = synth_ecg(50.0, 32);
  rt::StreamConfig config;
  config.fs_hz = wf_a.fs_hz;
  config.window_s = 20.0;
  config.stride_s = 10.0;

  std::vector<std::vector<rt::ExtractedWindow>> solo(2);
  for (int p = 0; p < 2; ++p) {
    rt::WindowExtractor extractor(config);
    extractor.push_samples(9, p == 0 ? wf_a.samples_mv : wf_b.samples_mv,
                           [&](rt::ExtractedWindow&& w) { solo[p].push_back(w); });
  }

  rt::WindowExtractor shared(config);
  std::vector<std::vector<rt::ExtractedWindow>> mixed(2);
  std::span<const double> rest_a(wf_a.samples_mv), rest_b(wf_b.samples_mv);
  const auto sink = [&mixed](rt::ExtractedWindow&& w) {
    mixed[w.patient_id - 1].push_back(w);
  };
  while (!rest_a.empty() || !rest_b.empty()) {
    if (!rest_a.empty()) {
      const std::size_t n = std::min<std::size_t>(1250, rest_a.size());
      shared.push_samples(1, rest_a.first(n), sink);
      rest_a = rest_a.subspan(n);
    }
    if (!rest_b.empty()) {
      const std::size_t n = std::min<std::size_t>(730, rest_b.size());
      shared.push_samples(2, rest_b.first(n), sink);
      rest_b = rest_b.subspan(n);
    }
  }

  for (int p = 0; p < 2; ++p) {
    ASSERT_EQ(mixed[p].size(), solo[p].size()) << "patient " << p;
    for (std::size_t w = 0; w < solo[p].size(); ++w) {
      EXPECT_EQ(mixed[p][w].start_s, solo[p][w].start_s);
      EXPECT_EQ(mixed[p][w].num_beats, solo[p][w].num_beats);
      for (std::size_t j = 0; j < solo[p][w].raw_features.size(); ++j)
        EXPECT_EQ(mixed[p][w].raw_features[j], solo[p][w].raw_features[j]);
    }
  }
}

TEST(WindowExtractor, EndPatientEmitsHeldBackTailWindows) {
  // Trim a record so its last window ends exactly at the final sample: the
  // live path must hold that window back (finality lag), and end_patient
  // must emit it with beats matching a finished full-record reference.
  const auto full = synth_ecg(75.0, 51);
  rt::StreamConfig config;
  config.fs_hz = full.fs_hz;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  rt::WindowExtractor extractor(config);
  const std::size_t window = extractor.window_samples();
  const std::size_t stride = extractor.stride_samples();
  const std::size_t total = window + 5 * stride;  // 6 windows; the last ends at the final sample.
  ASSERT_LE(total, full.samples_mv.size());
  const std::span<const double> record(full.samples_mv.data(), total);

  std::vector<rt::ExtractedWindow> live, tail;
  extractor.push_samples(3, record,
                         [&live](rt::ExtractedWindow&& w) { live.push_back(w); });
  // The last window [50 s, 70 s) has no lookahead samples after it: held back.
  const std::size_t live_expected =
      (total - window - extractor.emission_lag_samples()) / stride + 1;
  ASSERT_EQ(live.size() + extractor.stats().rejected_windows, live_expected);
  EXPECT_LT(live_expected, 6u);

  ASSERT_TRUE(extractor.end_patient(3, [&tail](rt::ExtractedWindow&& w) { tail.push_back(w); }));
  EXPECT_EQ(extractor.num_patients(), 0u);
  EXPECT_FALSE(extractor.end_patient(3, [](rt::ExtractedWindow&&) {}));
  ASSERT_EQ(live.size() + tail.size() + extractor.stats().rejected_windows, 6u);
  ASSERT_FALSE(tail.empty());

  // Reference: finished detector over the same finite record.
  ecg::StreamingQrsDetector reference(config.fs_hz);
  reference.push(record);
  reference.finish();
  std::vector<ecg::Beat> beats;
  for (std::size_t i = 0; i < reference.beats().size(); ++i)
    beats.push_back(reference.beats()[i]);
  for (const auto& w : tail) expect_matches_reference(w, beats, extractor, config.fs_hz);
}

TEST(WindowExtractor, ErasePatientRestartsWindowPhase) {
  const auto wf = synth_ecg(40.0, 41);
  rt::StreamConfig config;
  config.fs_hz = wf.fs_hz;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  rt::WindowExtractor extractor(config);
  std::vector<rt::ExtractedWindow> first_run;
  extractor.push_samples(1, wf.samples_mv,
                         [&](rt::ExtractedWindow&& w) { first_run.push_back(w); });
  ASSERT_FALSE(first_run.empty());
  EXPECT_TRUE(extractor.erase_patient(1));
  EXPECT_FALSE(extractor.erase_patient(1));
  EXPECT_EQ(extractor.buffered_samples(1), 0u);

  // Re-pushing the same record rebuilds the stream from scratch: identical
  // windows starting again at phase 0.
  std::vector<rt::ExtractedWindow> second_run;
  extractor.push_samples(1, wf.samples_mv,
                         [&](rt::ExtractedWindow&& w) { second_run.push_back(w); });
  ASSERT_EQ(second_run.size(), first_run.size());
  for (std::size_t w = 0; w < first_run.size(); ++w) {
    EXPECT_EQ(second_run[w].start_s, first_run[w].start_s);
    for (std::size_t j = 0; j < first_run[w].raw_features.size(); ++j)
      EXPECT_EQ(second_run[w].raw_features[j], first_run[w].raw_features[j]);
  }
}

}  // namespace
}  // namespace svt
