// Continuous (non-barrier) delivery: results arriving through the
// ResultSink must be time-ordered per patient, batched one patient at a
// time, and bit-identical to the single-threaded StreamClassifier under
// 1/2/4 workers — with flush() a pure fence, hot-swaps fencing on batch
// boundaries, blocking backpressure not changing results, and evict_patient
// restarting a stream from scratch.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
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

std::map<int, ecg::EcgWaveform> make_ward() {
  std::map<int, ecg::EcgWaveform> ward;
  int seed = 40;
  for (int pid : {1, 2, 3, 7, 11}) ward[pid] = synth_ecg(55.0, static_cast<std::uint64_t>(seed++));
  return ward;
}

std::vector<rt::WindowResult> reference_results(const std::map<int, ecg::EcgWaveform>& ward) {
  rt::StreamClassifier reference(detector(), short_window_config());
  for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
  return reference.flush();
}

TEST(ContinuousDelivery, OrderedAndBitIdenticalUnder124Workers) {
  const auto ward = make_ward();
  const auto want = reference_results(ward);
  ASSERT_FALSE(want.empty());

  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    Collector collector;
    rt::ShardedStreamClassifier engine(detector(), short_window_config(),
                                       engine_options(workers, collector.sink()));
    push_interleaved(engine, ward, 733);  // Odd chunk size: windows straddle chunks.
    engine.flush();

    EXPECT_TRUE(collector.single_patient_batches) << workers << " workers";
    EXPECT_TRUE(collector.time_ordered) << workers << " workers";
    EXPECT_GT(collector.batches, ward.size()) << "expected per-chunk, not per-flush, delivery";
    expect_bit_identical(collector.all(), want, "continuous");
    std::size_t total = 0;
    for (const auto& [pid, results] : collector.per_patient) total += results.size();
    EXPECT_EQ(engine.stats().delivered_windows, total);
  }
}

TEST(ContinuousDelivery, ResultsArriveBeforeAnyFlush) {
  // The whole point of continuous mode: no fence is needed to get results.
  const auto wf = synth_ecg(55.0, 77);
  Collector collector;
  rt::ShardedStreamClassifier engine(detector(), short_window_config(),
                                     engine_options(2, collector.sink()));
  engine.push_samples(1, wf.samples_mv);
  // Spin (bounded) until the pipeline classifies something — no flush().
  for (int i = 0; i < 10000 && engine.stats().delivered_windows == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(engine.stats().delivered_windows, 0u);
  engine.flush();  // Only to quiesce before the collector is inspected.
  EXPECT_FALSE(collector.per_patient.empty());
}

TEST(ContinuousDelivery, BoundedBlockingQueueDoesNotChangeResults) {
  // A 2-chunk queue forces producers to ride the backpressure path; results
  // must be unchanged (a blocking queue is lossless).
  const auto ward = make_ward();
  const auto want = reference_results(ward);
  Collector collector;
  rt::EngineOptions options = engine_options(2, collector.sink());
  options.queue_capacity = 2;
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));
  push_interleaved(engine, ward, 733);
  engine.flush();
  EXPECT_TRUE(collector.time_ordered);
  expect_bit_identical(collector.all(), want, "bounded blocking queue");
}

TEST(ContinuousDelivery, HotSwapFencesOnBatchBoundary) {
  // Swap patient 1 to a coarser 6-bit engine between two fences: every
  // window delivered after the fence must be bit-identical to an engine
  // that served the coarse model from the start.
  const auto& d = detector();
  core::QuantConfig coarse;
  coarse.feature_bits = 6;
  auto coarse_model = std::make_shared<const rt::ServableModel>(
      d.selected_features(), d.scaler(), d.model(),
      core::QuantizedModel::build(d.model(), coarse));
  const auto wf = synth_ecg(80.0, 91);
  const std::size_t half = wf.samples_mv.size() / 2;

  auto run = [&](bool swap_mid_stream, bool coarse_from_start) {
    Collector collector;
    rt::ShardedStreamClassifier engine(d, short_window_config(),
                                       engine_options(2, collector.sink()));
    if (coarse_from_start) engine.registry().install(1, coarse_model);
    engine.push_samples(1, std::span(wf.samples_mv).first(half));
    engine.flush();  // Fence: everything before here used the initial model.
    const std::size_t pre_swap = collector.per_patient[1].size();
    if (swap_mid_stream) engine.registry().install(1, coarse_model);
    engine.push_samples(1, std::span(wf.samples_mv).subspan(half));
    engine.flush();
    return std::pair(pre_swap, collector.per_patient[1]);
  };

  const auto [swap_cut, swapped] = run(true, false);
  const auto [coarse_cut, coarse_all] = run(false, true);
  ASSERT_EQ(swapped.size(), coarse_all.size());
  ASSERT_LT(swap_cut, swapped.size());
  EXPECT_EQ(swap_cut, coarse_cut);
  bool any_difference = false;
  for (std::size_t w = 0; w < swapped.size(); ++w) {
    if (w < swap_cut) {
      // Pre-swap: 9-bit vs 6-bit decisions must differ somewhere.
      if (swapped[w].decision_value != coarse_all[w].decision_value) any_difference = true;
    } else {
      // Post-fence: bit-identical to the coarse-from-start engine.
      EXPECT_EQ(swapped[w].decision_value, coarse_all[w].decision_value) << "window " << w;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ContinuousDelivery, RegistryGenerationTracksSwaps) {
  rt::ModelRegistry registry(rt::ServableModel::from_detector(detector()));
  const auto g0 = registry.generation();
  registry.install(1, rt::ServableModel::from_detector(detector()));
  EXPECT_EQ(registry.generation(), g0 + 1);
  registry.erase(1);
  EXPECT_EQ(registry.generation(), g0 + 2);
  registry.erase(1);  // Absent: not a mutation.
  EXPECT_EQ(registry.generation(), g0 + 2);
}

TEST(ContinuousDelivery, EvictPatientRestartsStreamFromScratch) {
  const auto wf = synth_ecg(55.0, 93);
  Collector collector;
  rt::ShardedStreamClassifier engine(detector(), short_window_config(),
                                     engine_options(2, collector.sink()));
  engine.push_samples(1, wf.samples_mv);
  engine.flush();
  const auto first = collector.per_patient[1];
  ASSERT_FALSE(first.empty());

  engine.evict_patient(1);  // Queued behind the pushes; fenced by flush.
  engine.push_samples(1, wf.samples_mv);
  engine.flush();
  const auto& all = collector.per_patient[1];
  // The replayed stream starts from phase 0 again: same windows, same
  // decisions, start times restarting at 0 — not continuing the old phase.
  ASSERT_EQ(all.size(), 2 * first.size());
  for (std::size_t w = 0; w < first.size(); ++w) {
    EXPECT_DOUBLE_EQ(all[first.size() + w].start_s, first[w].start_s);
    EXPECT_EQ(all[first.size() + w].decision_value, first[w].decision_value);
  }
}

TEST(ContinuousDelivery, ThrowingFlushRetainsOtherPatientsResults) {
  // Patient 1 has a model, patient 5 does not: flush() reports the error,
  // but patient 1's windows still reach the sink, bit-identical to the
  // oracle — a partial failure must not discard good results.
  auto registry = std::make_shared<rt::ModelRegistry>();  // No default.
  registry->install(1, rt::ServableModel::from_detector(detector()));
  Collector collector;
  rt::ShardedStreamClassifier engine(registry, short_window_config(),
                                     engine_options(2, collector.sink()));
  const auto wf = synth_ecg(55.0, 19);
  engine.push_samples(1, wf.samples_mv);
  engine.push_samples(5, wf.samples_mv);
  EXPECT_THROW(engine.flush(), std::runtime_error);
  EXPECT_NO_THROW(engine.flush());  // Reported once; the engine stays usable.
  rt::StreamClassifier reference(detector(), short_window_config());
  reference.push_samples(1, wf.samples_mv);
  expect_bit_identical(collector.all(), reference.flush(), "patient 1 beside a failing patient");
}

TEST(ContinuousDelivery, WorkerSurvivesMissingModelAndFlushRethrows) {
  auto registry = std::make_shared<rt::ModelRegistry>();  // No default, no entries.
  Collector collector;
  rt::ShardedStreamClassifier engine(registry, short_window_config(),
                                     engine_options(2, collector.sink()));
  const auto wf = synth_ecg(30.0, 17);
  engine.push_samples(5, wf.samples_mv);
  EXPECT_THROW(engine.flush(), std::runtime_error);
  EXPECT_TRUE(collector.per_patient.empty());
  // The worker kept serving: install a model and the engine is usable again.
  registry->set_default(
      std::make_shared<const rt::ServableModel>(rt::ServableModel::from_detector(detector())));
  engine.push_samples(5, wf.samples_mv);
  engine.flush();
  EXPECT_FALSE(collector.per_patient.empty());
}

}  // namespace
}  // namespace svt
