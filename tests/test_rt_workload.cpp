// Multi-workload engine: apnea and AF screening multiplexed through one
// stream must (a) share the per-patient substrate without perturbing each
// other — per-(patient, workload) results bit-identical to a
// single-threaded reference at ANY worker count, (b) leave the
// single-workload default bit-identical to a config that never mentions
// workloads, and (c) keep the quality gate's per-shard counters summing to
// the reference exactly across mid-stream flushes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "ecg/quality.hpp"
#include "features/af_features.hpp"
#include "features/extractor.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/sharded_classifier.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/window_extractor.hpp"
#include "rt/workload.hpp"
#include "support/fixtures.hpp"

namespace svt {
namespace {

using namespace test;

rt::StreamConfig multi_config() {
  rt::StreamConfig config = short_window_config();
  config.workloads = {rt::apnea_workload(), rt::af_workload()};
  return config;
}

std::shared_ptr<rt::ModelRegistry> multi_registry() {
  auto registry = std::make_shared<rt::ModelRegistry>();
  registry->set_default(0, rt::synthetic_full_feature_model());
  registry->set_default(1, rt::synthetic_af_model());
  return registry;
}

std::map<int, ecg::EcgWaveform> make_ward() {
  std::map<int, ecg::EcgWaveform> ward;
  int seed = 80;
  for (int pid : {1, 2, 3, 7, 11}) ward[pid] = synth_ecg(55.0, static_cast<std::uint64_t>(seed++));
  return ward;
}

/// A one-feature workload that throws on its `throw_on`-th call (never
/// when throw_on is 0) and otherwise writes its call count.
class ThrowingWorkload final : public rt::Workload {
 public:
  explicit ThrowingWorkload(int throw_on) : throw_on_(throw_on) {}
  const char* name() const override { return "throwing"; }
  std::size_t num_features() const override { return 1; }
  std::string feature_name(std::size_t) const override { return "calls"; }
  void extract(const rt::WindowSubstrate&, features::FeatureScratch&,
               std::span<double> out) const override {
    if (++calls_ == throw_on_) throw std::runtime_error("workload failed");
    out[0] = 0.0;
  }

 private:
  int throw_on_;
  mutable int calls_ = 0;
};

// A workload that throws mid-batch loses the windows of its call that had
// not reached the sink, and leaves none of them pending: the next call
// emits only windows assembled afresh, each bit-identical to an extractor
// whose workload never threw. Every patient's sample count still advances
// with its chunk.
TEST(Workloads, ThrowingWorkloadLeavesNoWindowPending) {
  const int patients[] = {1, 2, 3};
  std::map<int, ecg::EcgWaveform> ward;
  for (const int p : patients) ward[p] = synth_ecg(70.0, 600 + static_cast<std::uint64_t>(p));
  using Key = std::tuple<int, double, std::uint32_t>;  // Patient, start, workload.
  const auto run = [&](int throw_on, std::map<Key, rt::ExtractedWindow>& out,
                       std::map<int, double>* consumed_at_throw) {
    rt::StreamConfig config = short_window_config();
    config.workloads = {rt::apnea_workload(), std::make_shared<ThrowingWorkload>(throw_on)};
    rt::WindowExtractor extractor(config);
    const auto sink = [&](rt::ExtractedWindow&& w) {
      const Key key{w.patient_id, w.start_s, w.workload};
      EXPECT_TRUE(out.emplace(key, std::move(w)).second) << "window emitted twice";
    };
    // 10 s rounds: each patient completes one window per round, so every
    // emission holds three pending windows.
    const std::size_t round = 2500;
    for (std::size_t at = 0; at < ward.begin()->second.samples_mv.size(); at += round) {
      std::vector<rt::WindowExtractor::PatientChunk> chunks;
      for (const int p : patients) {
        const std::span<const double> samples(ward[p].samples_mv);
        chunks.push_back({p, samples.subspan(at, std::min(round, samples.size() - at))});
      }
      try {
        extractor.push_batch(chunks, sink);
      } catch (const std::runtime_error&) {
        ASSERT_NE(consumed_at_throw, nullptr);
        for (const int p : patients) {
          const auto pushed = static_cast<double>(at + chunks.front().samples_mv.size());
          (*consumed_at_throw)[p] =
              (pushed - static_cast<double>(extractor.buffered_samples(p))) / config.fs_hz;
        }
      }
    }
    for (const int p : patients) extractor.end_patient(p, sink);
  };

  std::map<Key, rt::ExtractedWindow> want, got;
  run(0, want, nullptr);
  std::map<int, double> consumed;
  run(4, got, &consumed);  // The first window of the second emitting round.
  ASSERT_EQ(consumed.size(), 3u);

  std::size_t lost = 0;
  for (const auto& [key, window] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      ++lost;
      // Only windows of the failed call are lost: each ends before where
      // its patient stood when the workload threw.
      EXPECT_LT(window.start_s, consumed[std::get<0>(key)]);
      continue;
    }
    ASSERT_EQ(it->second.num_features, window.num_features);
    if (std::get<2>(key) == 0)
      for (std::size_t f = 0; f < window.num_features; ++f)
        EXPECT_EQ(it->second.raw_features[f], window.raw_features[f]);
  }
  EXPECT_EQ(got.size() + lost, want.size());
  // The throwing call held one window per patient: the first reached the
  // sink for workload 0 before workload 1 threw, the other two not at all.
  EXPECT_EQ(lost, 1u + 2u * 2);
}

TEST(Workloads, SchemasAreStable) {
  const auto apnea = rt::apnea_workload();
  EXPECT_STREQ(apnea->name(), "apnea");
  EXPECT_EQ(apnea->num_features(), features::kNumFeatures);

  const auto af = rt::af_workload();
  EXPECT_STREQ(af->name(), "af");
  ASSERT_EQ(af->num_features(), features::kNumAfFeatures);
  EXPECT_EQ(af->feature_name(0), "af_rmssd_ratio");
  EXPECT_EQ(af->feature_name(1), "af_turning_point_ratio");
  EXPECT_EQ(af->feature_name(2), "af_shannon_entropy");
}

TEST(Workloads, EmptyListServesApneaAsWorkloadZero) {
  // The back-compat default: no workloads named == exactly {apnea} as
  // workload 0, bit-identical results.
  const auto wf = synth_ecg(55.0, 70);
  auto config = multi_config();
  config.workloads.clear();
  rt::StreamClassifier implicit(rt::synthetic_full_feature_model(), config);
  config.workloads = {rt::apnea_workload()};
  rt::StreamClassifier named(rt::synthetic_full_feature_model(), config);
  implicit.push_samples(1, wf.samples_mv);
  named.push_samples(1, wf.samples_mv);
  const auto a = implicit.flush();
  const auto b = named.flush();
  ASSERT_FALSE(a.empty());
  expect_bit_identical(a, b, "implicit vs named apnea");
  for (const auto& r : a) EXPECT_EQ(r.workload, 0u);
}

TEST(Workloads, MultiWorkloadShardedMatchesSingleThreadedReference) {
  const auto ward = make_ward();
  const auto config = multi_config();

  // Reference: single-threaded engine serving one model per workload.
  rt::StreamClassifier reference(
      std::vector<rt::ServableModel>{rt::synthetic_full_feature_model(),
                                     rt::synthetic_af_model()},
      config);
  for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
  const auto want = reference.flush();
  ASSERT_FALSE(want.empty());

  // Every window position yields one result per workload.
  const auto split = by_stream(want);
  for (const auto& [pid, wf] : ward) {
    ASSERT_TRUE(split.count({pid, 0})) << "patient " << pid;
    ASSERT_TRUE(split.count({pid, 1})) << "patient " << pid;
    EXPECT_EQ(split.at({pid, 0}).size(), split.at({pid, 1}).size()) << "patient " << pid;
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    Collector collector;
    rt::ShardedStreamClassifier sharded(multi_registry(), config,
                                        engine_options(workers, collector.sink()));
    EXPECT_EQ(sharded.num_workloads(), 2u);
    push_interleaved(sharded, ward, 733);
    sharded.flush();
    EXPECT_TRUE(collector.time_ordered);
    expect_bit_identical(collector.all(), want, std::to_string(workers) + " workers");
  }
}

TEST(Workloads, MidStreamFlushesKeepResultsAndQualityStatsExact) {
  // A 2-workload stream with the quality gate runs on 4 shards, fenced every
  // third interleaving round; after the final fence the results AND the
  // per-shard gate counters must sum to the single-threaded reference
  // exactly.
  auto ward = make_ward();
  // Dirty one patient so the gate has real state to count.
  for (const double at_s : {13.0, 33.0}) {
    auto& samples = ward[7].samples_mv;
    const auto at = static_cast<std::size_t>(at_s * 250.0);
    for (std::size_t i = 0; i < 40 && at + i < samples.size(); ++i) samples[at + i] = 9.0;
  }
  auto config = multi_config();
  config.quality.enable = true;
  config.quality.policy = ecg::QualityPolicy::kAnnotate;

  rt::StreamClassifier reference(
      std::vector<rt::ServableModel>{rt::synthetic_full_feature_model(),
                                     rt::synthetic_af_model()},
      config);
  for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
  const auto want = reference.flush();
  const auto want_quality = reference.stats().quality;
  ASSERT_GT(want_quality.artifact_spans, 0u);
  ASSERT_GT(want_quality.windows_annotated, 0u);

  Collector collector;
  rt::ShardedStreamClassifier sharded(multi_registry(), config,
                                      engine_options(4, collector.sink()));
  std::map<int, std::size_t> offsets;
  bool any_left = true;
  int round = 0;
  while (any_left) {
    any_left = false;
    for (const auto& [pid, wf] : ward) {
      std::size_t& off = offsets[pid];
      if (off >= wf.samples_mv.size()) continue;
      const std::size_t n = std::min<std::size_t>(997, wf.samples_mv.size() - off);
      sharded.push_samples(pid, std::span(wf.samples_mv).subspan(off, n));
      off += n;
      if (off < wf.samples_mv.size()) any_left = true;
    }
    if (++round % 3 == 0) sharded.flush();
  }
  sharded.flush();

  expect_bit_identical(collector.all(), want, "mid-stream flushes");
  const auto got_quality = sharded.stats().quality;
  EXPECT_EQ(got_quality.artifact_hits, want_quality.artifact_hits);
  EXPECT_EQ(got_quality.artifact_spans, want_quality.artifact_spans);
  EXPECT_EQ(got_quality.rejected_samples, want_quality.rejected_samples);
  EXPECT_EQ(got_quality.rr_outliers, want_quality.rr_outliers);
  EXPECT_EQ(got_quality.windows_annotated, want_quality.windows_annotated);
  EXPECT_EQ(got_quality.windows_suppressed, want_quality.windows_suppressed);
}

TEST(Workloads, PerWorkloadModelResolutionIsIndependent) {
  // Swapping the AF default must change only workload-1 results; apnea
  // (workload 0) stays bit-identical.
  const auto wf = synth_ecg(55.0, 71);
  const auto config = multi_config();

  auto run = [&](std::uint64_t af_seed) {
    auto registry = std::make_shared<rt::ModelRegistry>();
    registry->set_default(0, rt::synthetic_full_feature_model());
    registry->set_default(1, rt::synthetic_af_model(af_seed));
    Collector collector;
    rt::ShardedStreamClassifier engine(registry, config, engine_options(2, collector.sink()));
    engine.push_samples(1, wf.samples_mv);
    engine.flush();
    return collector.all();
  };
  const auto a = run(43);
  const auto b = run(91);
  const auto a_split = by_stream(a);
  const auto b_split = by_stream(b);
  ASSERT_TRUE(a_split.count({1, 0}) && a_split.count({1, 1}));
  // Workload 0 untouched by the swap.
  const auto& apnea_a = a_split.at({1, 0});
  const auto& apnea_b = b_split.at({1, 0});
  ASSERT_EQ(apnea_a.size(), apnea_b.size());
  for (std::size_t w = 0; w < apnea_a.size(); ++w)
    EXPECT_EQ(apnea_a[w].decision_value, apnea_b[w].decision_value);
  // Workload 1 answers differ somewhere (different random AF model).
  const auto& af_a = a_split.at({1, 1});
  const auto& af_b = b_split.at({1, 1});
  ASSERT_EQ(af_a.size(), af_b.size());
  bool any_diff = false;
  for (std::size_t w = 0; w < af_a.size(); ++w)
    if (af_a[w].decision_value != af_b[w].decision_value) any_diff = true;
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace svt
