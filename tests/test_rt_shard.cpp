// ShardedStreamClassifier: per-patient results must be bit-identical to the
// single-threaded StreamClassifier under ANY worker count, shard assignment,
// chunk interleaving, or flush cadence — for both the quantised fixed-point
// engine and the packed float path — and model hot-swap must take effect at
// a flush boundary without disturbing stream state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tailoring.hpp"
#include "rt/sharded_classifier.hpp"
#include "rt/stream_classifier.hpp"
#include "support/fixtures.hpp"

namespace svt {
namespace {

using namespace test;

/// A small ward with distinct, reproducible streams.
std::map<int, ecg::EcgWaveform> make_ward() {
  std::map<int, ecg::EcgWaveform> ward;
  int seed = 40;
  for (int pid : {1, 2, 3, 7, 11}) ward[pid] = synth_ecg(55.0, static_cast<std::uint64_t>(seed++));
  return ward;
}

void check_determinism(const rt::ServableModel& model, const char* what) {
  const auto ward = make_ward();

  // Reference: the single-threaded engine, whole streams pushed per patient.
  rt::StreamClassifier reference(model, short_window_config());
  for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
  const auto want = reference.flush();
  ASSERT_FALSE(want.empty());

  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    Collector collector;
    rt::ShardedStreamClassifier sharded(default_registry(model), short_window_config(),
                                        engine_options(workers, collector.sink()));
    EXPECT_EQ(sharded.num_workers(), workers);
    push_interleaved(sharded, ward, 733);  // Odd chunk size: windows straddle chunks.
    sharded.flush();
    expect_bit_identical(collector.all(), want, what);
    EXPECT_EQ(sharded.stats().rejected_windows, reference.stats().rejected_windows);
  }
}

TEST(ShardedStreamClassifier, BitIdenticalAcrossWorkerCountsQuantized) {
  check_determinism(servable(), "quantized");
}

TEST(ShardedStreamClassifier, BitIdenticalAcrossWorkerCountsFloat) {
  check_determinism(float_servable(), "float");
}

TEST(ShardedStreamClassifier, FlushCadenceDoesNotChangeResults) {
  const auto ward = make_ward();
  rt::StreamClassifier reference(servable(), short_window_config());
  for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
  const auto want = reference.flush();

  // Same streams, four workers, flushing after every interleaving round.
  Collector collector;
  rt::ShardedStreamClassifier sharded(default_registry(), short_window_config(),
                                      engine_options(4, collector.sink()));
  std::map<int, std::size_t> offsets;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (const auto& [pid, wf] : ward) {
      std::size_t& off = offsets[pid];
      if (off >= wf.samples_mv.size()) continue;
      const std::size_t n = std::min<std::size_t>(2048, wf.samples_mv.size() - off);
      sharded.push_samples(pid, std::span(wf.samples_mv).subspan(off, n));
      off += n;
      if (off < wf.samples_mv.size()) any_left = true;
    }
    sharded.flush();
  }
  EXPECT_TRUE(collector.time_ordered);
  expect_bit_identical(collector.all(), want, "mid-stream flushes");
}

TEST(ShardedStreamClassifier, EmptyFlushAndUnknownPatient) {
  Collector collector;
  rt::ShardedStreamClassifier sharded(default_registry(), short_window_config(),
                                      engine_options(3, collector.sink()));
  sharded.flush();
  sharded.flush();  // Fence protocol resets cleanly.
  EXPECT_EQ(collector.batches, 0u);
  EXPECT_EQ(sharded.stats().delivered_windows, 0u);
  EXPECT_EQ(sharded.stats().rejected_windows, 0u);
}

TEST(ShardedStreamClassifier, RejectsBeatlessWindows) {
  Collector collector;
  rt::ShardedStreamClassifier sharded(default_registry(), short_window_config(),
                                      engine_options(2, collector.sink()));
  // A flat line has no QRS complexes: every full window must be rejected.
  const std::vector<double> flat(static_cast<std::size_t>(sharded.config().fs_hz * 45.0), 0.0);
  sharded.push_samples(1, flat);
  sharded.flush();
  EXPECT_TRUE(collector.per_patient.empty());
  // 45 s at 20 s windows / 10 s stride -> windows at 0, 10, 20 s.
  EXPECT_EQ(sharded.stats().rejected_windows, 3u);
}

TEST(ShardedStreamClassifier, ShardAssignmentIsStable) {
  // A patient's shard is the Fibonacci hash of its id and the worker count.
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    Collector collector;
    rt::ShardedStreamClassifier sharded(default_registry(), short_window_config(),
                                        engine_options(workers, collector.sink()));
    for (int pid = -5; pid < 40; ++pid) {
      const auto shard = sharded.shard_of(pid);
      EXPECT_LT(shard, sharded.num_workers());
      EXPECT_EQ(shard, rt::fibonacci_shard(pid, workers)) << pid << " at " << workers;
    }
  }
}

TEST(ShardedStreamClassifier, HotSwapTakesEffectAtFlushBoundary) {
  // Patient 1's model is swapped from the cohort default (9-bit quantised)
  // to a coarser 6-bit engine between two flushes. The post-swap windows
  // must be bit-identical to an engine that served the 6-bit model from the
  // start — i.e. the swap changes the model, not the stream state.
  core::QuantConfig coarse;
  coarse.feature_bits = 6;
  auto coarse_model = std::make_shared<const rt::ServableModel>(
      detector().selected_features(), detector().scaler(), detector().model(),
      core::QuantizedModel::build(detector().model(), coarse));

  const auto wf = synth_ecg(80.0, 91);
  const std::size_t half = wf.samples_mv.size() / 2;

  // Windows delivered by the first flush, then by the second.
  auto run = [&](bool swap_mid_stream, bool coarse_from_start) {
    Collector collector;
    rt::ShardedStreamClassifier sharded(default_registry(), short_window_config(),
                                        engine_options(2, collector.sink()));
    if (coarse_from_start) sharded.registry().install(1, coarse_model);
    sharded.push_samples(1, std::span(wf.samples_mv).first(half));
    sharded.flush();
    const auto first = collector.all();
    if (swap_mid_stream) sharded.registry().install(1, coarse_model);
    sharded.push_samples(1, std::span(wf.samples_mv).subspan(half));
    sharded.flush();
    auto second = collector.all();
    second.erase(second.begin(), second.begin() + static_cast<std::ptrdiff_t>(first.size()));
    return std::pair(first, second);
  };

  const auto [swap_first, swap_second] = run(true, false);
  const auto [default_first, default_second] = run(false, false);
  const auto [coarse_first, coarse_second] = run(false, true);

  // Before the swap: identical to the default engine.
  expect_bit_identical(swap_first, default_first, "pre-swap");
  // After the swap: identical to the coarse engine (same windows, new model).
  ASSERT_FALSE(swap_second.empty());
  expect_bit_identical(swap_second, coarse_second, "post-swap");
  // Sanity: the swap actually changed something (6-bit vs 9-bit decisions).
  bool any_difference = false;
  for (std::size_t w = 0; w < swap_second.size(); ++w)
    if (swap_second[w].decision_value != default_second[w].decision_value)
      any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(ShardedStreamClassifier, FlushTerminatesAndLosesNothingUnderConcurrentPushes) {
  // A producer thread streams chunks while the main thread flushes
  // repeatedly. Each flush must terminate (it cuts its drain at the fence
  // instead of chasing freshly pushed windows), and every window must reach
  // the sink exactly once, bit-identical to the single-threaded engine.
  const auto wf = synth_ecg(60.0, 55);
  Collector collector;
  rt::ShardedStreamClassifier sharded(default_registry(), short_window_config(),
                                      engine_options(2, collector.sink()));
  std::thread producer([&] {
    std::span<const double> rest(wf.samples_mv);
    while (!rest.empty()) {
      const std::size_t n = std::min<std::size_t>(997, rest.size());
      sharded.push_samples(2, rest.first(n));
      rest = rest.subspan(n);
    }
  });
  for (int i = 0; i < 50; ++i) sharded.flush();
  producer.join();
  sharded.flush();  // Drain the tail.

  rt::StreamClassifier reference(servable(), short_window_config());
  reference.push_samples(2, wf.samples_mv);
  expect_bit_identical(collector.all(), reference.flush(), "concurrent push");
}

/// Every EngineStats counter, lane split last (kLaneFields of them).
std::vector<std::uint64_t> stat_fields(const rt::EngineStats& s) {
  const features::SegmentCacheStats& c = s.cache;
  const ecg::QualityStats& q = s.quality;
  std::vector<std::uint64_t> fields = {s.delivered_windows, s.rejected_windows, s.dropped_chunks};
  fields.insert(fields.end(), {c.hits, c.misses, c.evictions, q.artifact_hits, q.artifact_spans});
  fields.insert(fields.end(), {q.rejected_samples, q.rr_outliers, q.windows_annotated});
  fields.insert(fields.end(), {q.windows_suppressed, s.lane_vector_samples, s.lane_scalar_samples});
  return fields;
}
constexpr std::size_t kLaneFields = 2;

TEST(ShardedStreamClassifier, StatsAreLiveMonotoneAndExactAfterFlush) {
  // stats() needs no fence: a reader thread polls it while two producers
  // push a gated ward with artifacts (patients 2 and 3) and a lead-off
  // stretch (patient 7, whose beatless windows are rejected), and while the
  // streams then end. Every field only grows and the lane split never runs
  // ahead of the samples pushed. After each fence — one behind the pushes,
  // one behind the stream ends — every field equals the single-threaded
  // engine's at the same point, except the lane split, which depends on how
  // rounds coalesce; there the sum (every sample extracted) must agree.
  auto ward = make_ward();
  // Cut 0.1 s past a window end, inside the emission lag: the window ending
  // at 50 s is held back by the live path and delivered by end_stream.
  // Chunks of just over a stride complete a window each from the second
  // on, so every shard's last round delivers.
  for (auto& [pid, wf] : ward) wf.samples_mv.resize(static_cast<std::size_t>(50.1 * 250.0));
  constexpr std::size_t kChunk = 2505;
  for (const int pid : {2, 3}) {
    auto& samples = ward[pid].samples_mv;
    for (const double at_s : {12.0, 31.5})
      std::fill_n(samples.begin() + static_cast<std::ptrdiff_t>(at_s * 250.0), 50, 8.5);
  }
  std::fill(ward[7].samples_mv.begin() + 10 * 250, ward[7].samples_mv.begin() + 35 * 250, 0.0);
  std::map<int, ecg::EcgWaveform> halves[2];
  std::size_t next_half = 0;
  for (const auto& [pid, wf] : ward) halves[next_half++ % 2][pid] = wf;
  std::uint64_t pushed = 0;
  for (const auto& [pid, wf] : ward) pushed += wf.samples_mv.size();
  rt::StreamConfig config = short_window_config();
  config.quality.enable = true;

  rt::StreamClassifier reference(servable(), config);
  for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
  reference.flush();
  const rt::EngineStats want_pushed = reference.stats();
  for (const auto& [pid, wf] : ward) reference.end_stream(pid);
  reference.flush();
  const rt::EngineStats want_ended = reference.stats();
  ASSERT_GT(want_pushed.rejected_windows, 0u);
  ASSERT_GT(want_pushed.quality.windows_annotated, 0u);
  ASSERT_GT(want_pushed.cache.hits, 0u);
  ASSERT_GT(want_ended.delivered_windows, want_pushed.delivered_windows);

  Collector collector;
  rt::ShardedStreamClassifier sharded(default_registry(), config,
                                      engine_options(2, collector.sink()));
  std::atomic<bool> done{false};
  std::size_t reads = 0;
  std::string violation;
  std::thread reader([&] {
    std::vector<std::uint64_t> seen = stat_fields({});
    do {
      const std::vector<std::uint64_t> now = stat_fields(sharded.stats());
      for (std::size_t f = 0; f < now.size() && violation.empty(); ++f)
        if (now[f] < seen[f]) violation = "field " + std::to_string(f) + " went backwards";
      if (now[now.size() - 2] + now.back() > pushed) violation = "lanes ran ahead of the pushes";
      seen = now;
      ++reads;
      std::this_thread::yield();
    } while (!done.load());
  });
  const auto expect_matches = [&](const rt::EngineStats& want, const char* when) {
    const rt::EngineStats got = sharded.stats();
    const std::vector<std::uint64_t> got_fields = stat_fields(got);
    const std::vector<std::uint64_t> want_fields = stat_fields(want);
    for (std::size_t f = 0; f + kLaneFields < got_fields.size(); ++f)
      EXPECT_EQ(got_fields[f], want_fields[f]) << when << ", field " << f;
    EXPECT_EQ(got.lane_vector_samples + got.lane_scalar_samples, pushed) << when;
    EXPECT_EQ(got.delivered_windows, collector.all().size()) << when;
  };

  std::vector<std::thread> producers;
  for (const auto& half : halves)
    producers.emplace_back([&sharded, &half] { push_interleaved(sharded, half, kChunk); });
  for (auto& producer : producers) producer.join();
  sharded.flush();
  expect_matches(want_pushed, "after the pushes");
  for (const auto& [pid, wf] : ward) sharded.end_stream(pid);
  sharded.flush();
  expect_matches(want_ended, "after the stream ends");
  done.store(true);
  reader.join();
  EXPECT_TRUE(violation.empty()) << violation;
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(want_ended.lane_vector_samples + want_ended.lane_scalar_samples, pushed);
  // One patient per push never fills a lane pair.
  EXPECT_EQ(want_ended.lane_vector_samples, 0u);
}

TEST(ShardedStreamClassifier, ThrowsWithoutAnyModel) {
  auto registry = std::make_shared<rt::ModelRegistry>();  // No default, no entries.
  Collector collector;
  rt::ShardedStreamClassifier sharded(registry, short_window_config(),
                                      engine_options(2, collector.sink()));
  const auto wf = synth_ecg(30.0, 17);
  sharded.push_samples(5, wf.samples_mv);
  EXPECT_THROW(sharded.flush(), std::runtime_error);
}

TEST(ShardedStreamClassifier, RejectsBadConstruction) {
  Collector collector;
  const rt::EngineOptions options = engine_options(2, collector.sink());
  EXPECT_THROW(rt::ShardedStreamClassifier(nullptr, short_window_config(), options),
               std::invalid_argument);
  auto config = short_window_config();
  config.stride_s = 25.0;  // > window_s.
  EXPECT_THROW(rt::ShardedStreamClassifier(default_registry(), config, options),
               std::invalid_argument);
  // The sink is the only way results leave the engine, so it is required.
  const rt::EngineOptions no_sink = engine_options(2, {});
  EXPECT_THROW(rt::ShardedStreamClassifier(default_registry(), short_window_config(), no_sink),
               std::invalid_argument);
  // Every shard queue is bounded, so a zero capacity is rejected.
  rt::EngineOptions no_capacity = engine_options(2, collector.sink());
  no_capacity.queue_capacity = 0;
  EXPECT_THROW(rt::ShardedStreamClassifier(default_registry(), short_window_config(), no_capacity),
               std::invalid_argument);
}

}  // namespace
}  // namespace svt
