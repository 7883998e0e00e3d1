// SegmentFeatureCache and the incremental (segment-cached) feature
// pipeline: bit-exact parity with a from-scratch reference built here —
// one detector lane over the whole record, a fresh cache per window, the
// extractor's gates and the seizure workload — across strides, overlaps and
// chunkings; plus hand-computed chunk semantics and the sharded engine at
// 1/2/4 workers against the single-threaded oracle.
//
// EXPECT_EQ on doubles throughout: the cache must change WHERE values are
// computed, never the values.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/spectral.hpp"
#include "dsp/statistics.hpp"
#include "ecg/lane_qrs.hpp"
#include "features/ar_features.hpp"
#include "features/feature_scratch.hpp"
#include "features/segment_cache.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/sharded_classifier.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/window_extractor.hpp"
#include "rt/workload.hpp"
#include "support/fixtures.hpp"

namespace svt {
namespace {

using namespace test;
using features::SegmentFeatureCache;

/// Run one patient through an extractor in fixed-size chunks, ending the
/// stream so held-back tail windows emit too.
std::vector<rt::ExtractedWindow> run_stream(const rt::StreamConfig& config,
                                            const ecg::EcgWaveform& wf, std::size_t chunk) {
  rt::WindowExtractor extractor(config);
  std::vector<rt::ExtractedWindow> windows;
  const auto sink = [&windows](rt::ExtractedWindow&& w) { windows.push_back(w); };
  std::span<const double> rest(wf.samples_mv);
  while (!rest.empty()) {
    const std::size_t n = std::min(chunk, rest.size());
    extractor.push_samples(1, rest.first(n), sink);
    rest = rest.subspan(n);
  }
  extractor.end_patient(1, sink);
  return windows;
}

void expect_windows_equal(const std::vector<rt::ExtractedWindow>& got,
                          const std::vector<rt::ExtractedWindow>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(got[w].start_s, want[w].start_s) << what << " window " << w;
    EXPECT_EQ(got[w].num_beats, want[w].num_beats) << what << " window " << w;
    for (std::size_t j = 0; j < want[w].raw_features.size(); ++j)
      EXPECT_EQ(got[w].raw_features[j], want[w].raw_features[j])
          << what << " window " << w << " feature " << j;
  }
}

// --- Layout planning ---------------------------------------------------------

TEST(SegmentCacheLayout, PaperConfigGeometry) {
  // 180 s window / 30 s stride at 250 Hz, 4 Hz EDR: 6 chunks of 120 grid
  // points, Welch segments of 2 chunks (240 <= welch_psd's 256 default),
  // 5 segments per window.
  const auto layout = SegmentFeatureCache::plan(250.0, 4.0, 7500, 45000);
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->chunk_len, 120);
  EXPECT_EQ(layout->chunks_per_window, 6);
  EXPECT_EQ(layout->seg_chunks, 2);
  EXPECT_EQ(layout->num_segments, 5);
  EXPECT_EQ(layout->window_edr_len(), 720);
  EXPECT_EQ(layout->welch_segment_len(), 240);
}

TEST(SegmentCacheLayout, RejectsNonAlignedConfigurations) {
  // Fractional EDR points per stride (2525 * 4 / 250 = 40.4).
  EXPECT_FALSE(SegmentFeatureCache::plan(250.0, 4.0, 2525, 5000).has_value());
  // Window not an integral number of strides.
  EXPECT_FALSE(SegmentFeatureCache::plan(250.0, 4.0, 7500, 46000).has_value());
  // Degenerate inputs.
  EXPECT_FALSE(SegmentFeatureCache::plan(0.0, 4.0, 7500, 45000).has_value());
  EXPECT_FALSE(SegmentFeatureCache::plan(250.0, 4.0, 0, 45000).has_value());
  // More EDR grid points than raw samples per stride, or none that count.
  EXPECT_FALSE(SegmentFeatureCache::plan(250.0, 1e20, 7500, 45000).has_value());
  EXPECT_FALSE(SegmentFeatureCache::plan(250.0, INFINITY, 7500, 45000).has_value());
  EXPECT_FALSE(SegmentFeatureCache::plan(250.0, NAN, 7500, 45000).has_value());
}

TEST(SegmentCacheLayout, EnginesRejectNonAlignedConfigurations) {
  // The geometries above as stream configs: windows are assembled from
  // stride chunks, so every engine refuses them at construction — and so
  // non-finite or out-of-range values, up front rather than on the first
  // push.
  struct Geometry {
    double fs_hz, window_s, stride_s, edr_fs_hz = 4.0;
  };
  const Geometry geometries[] = {
      {250.0, 20.0, 10.1},             // 40.4 EDR points per stride.
      {250.0, 184.0, 30.0},            // Window not a whole number of strides.
      {0.0, 180.0, 30.0},              // Zero sampling rate.
      {250.0, 180.0, 0.0},             // Zero stride.
      {250.0, 180.0, 30.0, INFINITY},  // Infinite EDR rate.
      {250.0, 180.0, 30.0, 1e20},      // EDR rate out of range.
      {250.0, 180.0, 30.0, NAN},       // NaN EDR rate.
      {250.0, 180.0, 30.0, 500.0},     // EDR rate above the sampling rate.
      {NAN, 180.0, 30.0},              // NaN sampling rate.
      {INFINITY, 180.0, 30.0},         // Infinite sampling rate.
      {250.0, NAN, 30.0},              // NaN window.
      {250.0, INFINITY, 30.0},         // Infinite window.
      {250.0, 180.0, NAN},             // NaN stride.
      {250.0, INFINITY, INFINITY},     // Infinite window and stride.
      {250.0, 1e300, 30.0},            // More samples than a double counts.
  };


  const auto model = rt::synthetic_full_feature_model();
  const auto registry = std::make_shared<rt::ModelRegistry>(model);
  Collector collector;
  const rt::EngineOptions options = engine_options(1, collector.sink());
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(std::to_string(g.fs_hz) + " Hz, " + std::to_string(g.window_s) + " s / " +
                 std::to_string(g.stride_s) + " s, EDR " + std::to_string(g.edr_fs_hz) + " Hz");
    rt::StreamConfig config;
    config.fs_hz = g.fs_hz;
    config.window_s = g.window_s;
    config.stride_s = g.stride_s;
    config.edr_fs_hz = g.edr_fs_hz;
    EXPECT_THROW(rt::WindowExtractor{config}, std::invalid_argument);
    EXPECT_THROW(rt::StreamClassifier(model, config), std::invalid_argument);
    EXPECT_THROW(rt::ShardedStreamClassifier(registry, config, options), std::invalid_argument);
  }
}

// --- Hand-computed chunk semantics -------------------------------------------

TEST(SegmentFeatureCache, ChunkProductsMatchHandComputation) {
  // fs 10 Hz, EDR 1 Hz, stride 20 samples (2 s), window 60 samples: chunks
  // of 2 grid points at local times 0 s and 1 s.
  const auto layout = SegmentFeatureCache::plan(10.0, 1.0, 20, 60);
  ASSERT_TRUE(layout.has_value());
  ASSERT_EQ(layout->chunk_len, 2);
  SegmentFeatureCache cache(*layout);

  ecg::BeatRing ring;
  ring.push_back({5, 1.0});   // Chunk 0, local t = 0.5 s.
  ring.push_back({12, 2.0});  // Chunk 0, local t = 1.2 s.
  ring.push_back({25, 4.0});  // Chunk 1, local t = 0.5 s.
  ring.push_back({48, 8.0});  // Chunk 2, local t = 0.8 s.

  const auto& c0 = cache.chunk(ring, 0);
  EXPECT_FALSE(c0.empty);
  EXPECT_EQ(c0.beats, 2u);
  // Grid t=0 clamps to the first beat (t_front 0.5); t=1 interpolates
  // between the beats at 0.5 s and 1.2 s.
  ASSERT_EQ(c0.edr.size(), 2u);
  EXPECT_EQ(c0.edr[0], 1.0);
  {
    const double frac = (1.0 - 0.5) / (1.2 - 0.5);
    EXPECT_EQ(c0.edr[1], 1.0 * (1.0 - frac) + 2.0 * frac);
  }
  // One interval: it ends at beat 12 (in-chunk); beat 5 opens no interval.
  ASSERT_EQ(c0.rr.size(), 1u);
  EXPECT_EQ(c0.rr[0], static_cast<double>(12 - 5) / 10.0);
  EXPECT_EQ(c0.rr_from[0], 5);

  const auto& c1 = cache.chunk(ring, 1);
  EXPECT_EQ(c1.beats, 1u);
  // Context beats at local -1.5 s and -0.8 s, in-chunk beat at 0.5 s:
  // t=0 interpolates across the chunk boundary, t=1 holds the last beat.
  {
    const double frac = (0.0 - (-0.8)) / (0.5 - (-0.8));
    EXPECT_EQ(c1.edr[0], 2.0 * (1.0 - frac) + 4.0 * frac);
  }
  EXPECT_EQ(c1.edr[1], 4.0);  // Causal tail hold: the next beat is unseen.
  ASSERT_EQ(c1.rr.size(), 1u);
  EXPECT_EQ(c1.rr[0], static_cast<double>(25 - 12) / 10.0);

  const auto& c2 = cache.chunk(ring, 2);
  EXPECT_EQ(c2.beats, 1u);
  {
    const double frac = (0.0 - (-1.5)) / (0.8 - (-1.5));
    EXPECT_EQ(c2.edr[0], 4.0 * (1.0 - frac) + 8.0 * frac);
  }
  EXPECT_EQ(c2.edr[1], 8.0);

  // Window assembly concatenates the chunk RR slices (all openers are
  // inside the window here) and counts in-window beats.
  const auto view = cache.assemble_window(0);
  EXPECT_EQ(view.beats, 4u);
  ASSERT_EQ(view.rr.size(), 3u);
  EXPECT_EQ(view.rr[0], 0.7);
  EXPECT_EQ(view.rr[1], 1.3);
  EXPECT_EQ(view.rr[2], 2.3);
  ASSERT_EQ(view.edr.size(), 6u);
  EXPECT_EQ(view.edr[0], c0.edr[0]);
  EXPECT_EQ(view.edr[5], c2.edr[1]);

  // Second access is a pure hit.
  const auto before = cache.stats();
  cache.chunk(ring, 1);
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(cache.stats().misses, before.misses);
}

TEST(SegmentFeatureCache, EmptyChunkIsHeldFromPrecedingChunk) {
  const auto layout = SegmentFeatureCache::plan(10.0, 1.0, 20, 60);
  ASSERT_TRUE(layout.has_value());
  SegmentFeatureCache cache(*layout);

  ecg::BeatRing ring;
  ring.push_back({5, 1.0});
  ring.push_back({12, 2.0});
  // No beat anywhere in chunk 2's horizon [20, 60).
  cache.chunk(ring, 0);
  const auto& c1 = cache.chunk(ring, 1);
  const auto& c2 = cache.chunk(ring, 2);
  // Chunk 1 sees only context beats (local -1.5 s, -0.8 s): both grid
  // points are past the last beat, so the whole chunk holds its amplitude.
  EXPECT_FALSE(c1.empty);
  EXPECT_EQ(c1.beats, 0u);
  EXPECT_EQ(c1.edr[0], 2.0);
  EXPECT_EQ(c1.edr[1], 2.0);
  EXPECT_TRUE(c2.empty);
  EXPECT_EQ(c2.beats, 0u);

  // Assembly fills the empty chunk by holding chunk 1's tail.
  const auto view = cache.assemble_window(0);
  ASSERT_EQ(view.edr.size(), 6u);
  EXPECT_EQ(view.edr[4], 2.0);
  EXPECT_EQ(view.edr[5], 2.0);
}

// --- Extractor-level parity: cached vs a from-scratch reference -------------

/// The extractor's PSD gates over a cache's window PSD (compute_psd_features'
/// early-outs: too short or constant, keep the zero fill).
class GatedWindowPsd final : public rt::WindowPsdSource {
 public:
  GatedWindowPsd(SegmentFeatureCache& cache, std::int64_t m0, std::span<const double> edr)
      : cache_(cache), m0_(m0), edr_(edr) {}

  const dsp::PsdEstimate* window_psd(features::FeatureScratch& scratch) override {
    if (edr_.size() < 32 || dsp::stddev_population(edr_) <= 0.0) return nullptr;
    return &cache_.window_psd(m0_, scratch.spectral);
  }

 private:
  SegmentFeatureCache& cache_;
  std::int64_t m0_;
  std::span<const double> edr_;
};

/// Every full window of a finite single-patient stream, built from scratch:
/// one detector lane runs the whole record, and each window is assembled
/// from a fresh SegmentFeatureCache, so no product is reused. Windows below
/// the beat floor are skipped, like the extractor's rejections.
std::vector<rt::ExtractedWindow> reference_windows(const rt::StreamConfig& config,
                                                   const ecg::EcgWaveform& wf) {
  ecg::LaneQrsDetector detector(config.fs_hz);
  const std::size_t lane = detector.add_lane();
  detector.push_one(lane, wf.samples_mv);
  detector.finish(lane);
  const ecg::BeatRing& ring = detector.beats(lane);

  const auto stride = static_cast<std::int64_t>(std::llround(config.stride_s * config.fs_hz));
  const auto window = static_cast<std::int64_t>(std::llround(config.window_s * config.fs_hz));
  const auto layout = SegmentFeatureCache::plan(config.fs_hz, config.edr_fs_hz, stride, window);
  EXPECT_TRUE(layout.has_value());
  if (!layout) return {};
  const auto workload = rt::apnea_workload();
  features::FeatureScratch scratch;
  std::vector<rt::ExtractedWindow> windows;
  const auto samples = static_cast<std::int64_t>(wf.samples_mv.size());
  for (std::int64_t m0 = 0; m0 * stride + window <= samples; ++m0) {
    SegmentFeatureCache cache(*layout);
    for (std::int64_t j = 0; j < layout->chunks_per_window; ++j) cache.chunk(ring, m0 + j);
    const auto view = cache.assemble_window(m0);
    if (view.beats < config.min_beats || view.beats < 2) continue;
    GatedWindowPsd psd(cache, m0, view.edr);
    std::array<double, features::kNumArFeatures> ar{};
    features::compute_ar_features(view.edr, scratch, ar);  // A lone fit per window.
    rt::WindowSubstrate substrate;
    substrate.rr_s = view.rr;
    substrate.edr = view.edr;
    substrate.edr_fs_hz = config.edr_fs_hz;
    substrate.num_beats = view.beats;
    substrate.ar = ar;
    substrate.psd = &psd;
    rt::ExtractedWindow out;
    out.patient_id = 1;
    out.start_s = static_cast<double>(m0 * stride) / config.fs_hz;
    out.num_beats = view.beats;
    out.num_features = workload->num_features();
    workload->extract(substrate, scratch, {out.raw_features.data(), out.num_features});
    windows.push_back(out);
  }
  return windows;
}

struct ParityConfig {
  const char* name;
  rt::StreamConfig stream;
  double duration_s;
  std::size_t chunk_a, chunk_b;  ///< Two chunkings, each checked.
};

std::vector<ParityConfig> parity_configs() {
  std::vector<ParityConfig> configs;
  {  // Paper configuration: 6x overlap, 2-chunk Welch segments.
    rt::StreamConfig c;
    c.window_s = 180.0;
    c.stride_s = 30.0;
    configs.push_back({"paper 180/30", c, 480.0, 3001, 997});
  }
  {  // 6x overlap with 3-chunk Welch segments (EDR at 8 Hz).
    rt::StreamConfig c;
    c.window_s = 60.0;
    c.stride_s = 10.0;
    c.edr_fs_hz = 8.0;
    configs.push_back({"60/10 edr8", c, 150.0, 1250, 777});
  }
  {  // 2x overlap, single Welch segment per window.
    rt::StreamConfig c;
    c.window_s = 20.0;
    c.stride_s = 10.0;
    configs.push_back({"20/10", c, 95.0, 555, 2500});
  }
  return configs;
}

TEST(IncrementalPipeline, CachedBitIdenticalToFromScratchReferenceAcrossConfigs) {
  for (const auto& pc : parity_configs()) {
    const auto wf = synth_ecg(pc.duration_s, 71);
    auto config = pc.stream;
    config.fs_hz = wf.fs_hz;

    const auto want = reference_windows(config, wf);
    ASSERT_GT(want.size(), 3u) << pc.name;
    for (const std::size_t chunk : {pc.chunk_a, pc.chunk_b}) {
      const std::string what = std::string(pc.name) + ", chunk " + std::to_string(chunk);
      expect_windows_equal(run_stream(config, wf, chunk), want, what.c_str());
    }
  }
}

TEST(IncrementalPipeline, ChunkingDoesNotChangeCachedWindows) {
  const auto wf = synth_ecg(150.0, 83);
  rt::StreamConfig config;
  config.fs_hz = wf.fs_hz;
  config.window_s = 60.0;
  config.stride_s = 10.0;
  const auto whole = run_stream(config, wf, wf.samples_mv.size());
  for (const std::size_t chunk : {std::size_t{250}, std::size_t{997}, std::size_t{10000}}) {
    const auto chunked = run_stream(config, wf, chunk);
    expect_windows_equal(chunked, whole, "chunking");
  }
}

TEST(IncrementalPipeline, CacheStatsReflectOverlapReuse) {
  const auto wf = synth_ecg(480.0, 29);
  rt::StreamConfig config;
  config.fs_hz = wf.fs_hz;
  config.window_s = 180.0;
  config.stride_s = 30.0;
  rt::WindowExtractor extractor(config);
  std::size_t windows = 0;
  std::span<const double> rest(wf.samples_mv);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(2500, rest.size());
    extractor.push_samples(1, rest.first(n), [&windows](rt::ExtractedWindow&&) { ++windows; });
    rest = rest.subspan(n);
  }
  ASSERT_GT(windows, 8u);
  const auto stats = extractor.stats().cache;
  // Steady state: 5 of 6 chunks and 4 of 5 Welch segments hit per window.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // Entries age out as the stride advances.
  EXPECT_GT(stats.hit_rate(), 0.7);

  // The counts outlive the patient.
  ASSERT_TRUE(extractor.erase_patient(1));
  EXPECT_EQ(extractor.stats().cache.hits, stats.hits);
  EXPECT_EQ(extractor.stats().cache.misses, stats.misses);
}

// --- Sharded engine at 1/2/4 workers -----------------------------------------

TEST(IncrementalPipeline, ShardedEngineMatchesOracleAcrossWorkerCounts) {
  const rt::StreamConfig config = short_window_config();  // Stride-aligned: the cache engages.
  std::map<int, ecg::EcgWaveform> ward;
  int seed = 60;
  for (int pid : {1, 2, 3, 7, 11})
    ward[pid] = synth_ecg(55.0, static_cast<std::uint64_t>(seed++));

  rt::StreamClassifier reference(servable(), config);
  for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
  const auto want = reference.flush();
  ASSERT_FALSE(want.empty());
  const auto want_cache = reference.stats().cache;
  EXPECT_GT(want_cache.hit_rate(), 0.0);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    Collector collector;
    rt::ShardedStreamClassifier sharded(default_registry(), config,
                                        engine_options(workers, collector.sink()));
    push_interleaved(sharded, ward, 1250);
    sharded.flush();
    expect_bit_identical(collector.all(), want, std::to_string(workers) + " workers");
    // Exact after flush(): the same windows made the same cache traffic.
    const auto stats = sharded.stats().cache;
    EXPECT_EQ(stats.hits, want_cache.hits) << workers << " workers";
    EXPECT_EQ(stats.misses, want_cache.misses) << workers << " workers";
    EXPECT_EQ(stats.evictions, want_cache.evictions) << workers << " workers";
  }
}

}  // namespace
}  // namespace svt
