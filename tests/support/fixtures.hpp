// Helpers shared by the engine test suites: a synthetic ECG record, the
// short 20 s / 10 s stream geometry, the tailored test detector and the
// served models and registry built from it, served decisions for raw
// feature vectors, interleaved pushing, a collecting sink that checks the
// sharded engine's delivery guarantees, and bit-exact comparison of result
// streams.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/tailoring.hpp"
#include "ecg/dataset.hpp"
#include "ecg/ecg_synth.hpp"
#include "ecg/rr_model.hpp"
#include "features/extractor.hpp"
#include "rt/engine.hpp"
#include "rt/model_registry.hpp"
#include "rt/window_extractor.hpp"

namespace svt::test {

/// `duration_s` of single-lead ECG at `fs_hz` for one simulated patient,
/// reproducible from `seed`.
inline ecg::EcgWaveform synth_ecg(double duration_s, std::uint64_t seed, double fs_hz = 250.0) {
  ecg::PatientProfile patient;
  ecg::SessionEvents events;
  ecg::SessionSignalParams sp;
  sp.duration_s = duration_s;
  std::mt19937_64 rng(seed);
  const auto rr = ecg::generate_rr_series(patient, events, sp, rng);
  const auto resp = ecg::generate_respiration(patient, events, sp, rng);
  ecg::EcgSynthParams params;
  params.fs_hz = fs_hz;
  return ecg::synthesize_ecg(rr, resp, params, rng);
}

/// 250 Hz, 20 s windows every 10 s: short records still yield several
/// overlapping windows, and the geometry tiles (see WindowExtractor).
inline rt::StreamConfig short_window_config() {
  rt::StreamConfig config;
  config.fs_hz = 250.0;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  return config;
}

/// A detector tailored on a small synthetic cohort (30 features, 60
/// support vectors), with or without its quantised engine.
inline core::TailoredDetector tailor_test_detector(bool quantized) {
  ecg::DatasetParams params;
  params.windows_per_session = 10;
  const auto ds = ecg::generate_dataset(params);
  const auto matrix = features::extract_feature_matrix(ds);
  core::TailoringConfig config;
  config.num_features = 30;
  config.sv_budget = 60;
  if (!quantized) config.quant.reset();
  return core::tailor_detector(matrix.samples, matrix.labels, config);
}

/// The quantised test detector, tailored once per test binary.
inline const core::TailoredDetector& detector() {
  static const core::TailoredDetector d = tailor_test_detector(true);
  return d;
}

/// The float-only test detector (no quantised engine: the packed float
/// kernel serves it), tailored once per test binary.
inline const core::TailoredDetector& float_detector() {
  static const core::TailoredDetector d = tailor_test_detector(false);
  return d;
}

/// The quantised test detector as the engines serve it.
inline const rt::ServableModel& servable() {
  static const rt::ServableModel m = rt::ServableModel::from_detector(detector());
  return m;
}

/// The float test detector as the engines serve it.
inline const rt::ServableModel& float_servable() {
  static const rt::ServableModel m = rt::ServableModel::from_detector(float_detector());
  return m;
}

/// A fresh registry serving `model` as its cohort-wide default.
inline std::shared_ptr<rt::ModelRegistry> default_registry(
    const rt::ServableModel& model = servable()) {
  return std::make_shared<rt::ModelRegistry>(model);
}

/// `model`'s prepared (selected + scaled) rows of raw full-length feature
/// vectors.
inline std::vector<std::vector<double>> prepared_rows(const rt::ServableModel& model,
                                                      std::span<const std::vector<double>> raw) {
  std::vector<std::vector<double>> rows(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) model.prepare_row(raw[i], rows[i]);
  return rows;
}

/// `model`'s decision values for raw full-length feature vectors, as the
/// engines serve windows with these features (label: value >= 0 is +1).
inline std::vector<double> served_values(const rt::ServableModel& model,
                                         std::span<const std::vector<double>> raw) {
  std::vector<double> values;
  rt::KernelScratch scratch;
  model.decision_values(prepared_rows(model, raw), values, scratch);
  return values;
}

/// Push every patient's stream in interleaved chunks of `chunk` samples
/// (one chunk per patient per round).
template <typename Engine>
void push_interleaved(Engine& engine, const std::map<int, ecg::EcgWaveform>& ward,
                      std::size_t chunk) {
  std::map<int, std::size_t> offsets;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (const auto& [pid, wf] : ward) {
      std::size_t& off = offsets[pid];
      if (off >= wf.samples_mv.size()) continue;
      const std::size_t n = std::min(chunk, wf.samples_mv.size() - off);
      engine.push_samples(pid, std::span(wf.samples_mv).subspan(off, n));
      off += n;
      if (off < wf.samples_mv.size()) any_left = true;
    }
  }
}

/// Whether `next` follows `prev` in one patient's delivery order: a later
/// window, or the same window for a later workload.
inline bool follows(const rt::WindowResult& prev, const rt::WindowResult& next) {
  return std::pair(prev.start_s, prev.workload) < std::pair(next.start_s, next.workload);
}

/// Thread-safe result sink that records each patient's windows and checks
/// the sharded engine's delivery guarantees as they arrive: every batch
/// holds one patient's windows, and each patient's windows arrive in
/// (start time, workload) order across all batches.
struct Collector {
  std::mutex mutex;
  std::map<int, std::vector<rt::WindowResult>> per_patient;
  std::size_t batches = 0;
  bool single_patient_batches = true;
  bool time_ordered = true;

  rt::ResultSink sink() {
    return [this](std::span<const rt::WindowResult> batch) {
      const std::lock_guard<std::mutex> lock(mutex);
      ++batches;
      if (batch.empty()) return;
      const int pid = batch.front().patient_id;
      auto& mine = per_patient[pid];
      for (const auto& r : batch) {
        if (r.patient_id != pid) single_patient_batches = false;
        if (!mine.empty() && !follows(mine.back(), r)) time_ordered = false;
        mine.push_back(r);
      }
    };
  }

  /// Every window received so far, patient by patient in id order, each
  /// patient's in arrival order.
  std::vector<rt::WindowResult> all() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::vector<rt::WindowResult> out;
    for (const auto& [pid, results] : per_patient)
      out.insert(out.end(), results.begin(), results.end());
    return out;
  }
};

/// Options for an engine with `workers` shards delivering to `sink`.
inline rt::EngineOptions engine_options(std::size_t workers, rt::ResultSink sink) {
  rt::EngineOptions options;
  options.num_workers = workers;
  options.sink = std::move(sink);
  return options;
}

/// Results keyed by (patient, workload), each stream in its given order.
inline std::map<std::pair<int, std::uint32_t>, std::vector<rt::WindowResult>> by_stream(
    std::span<const rt::WindowResult> results) {
  std::map<std::pair<int, std::uint32_t>, std::vector<rt::WindowResult>> split;
  for (const auto& r : results) split[{r.patient_id, r.workload}].push_back(r);
  return split;
}

/// `got` must hold exactly `want`'s windows per (patient, workload) stream,
/// in the same order within each stream, bit for bit (EXPECT_EQ on the
/// doubles, no tolerance). Order across streams does not matter.
inline void expect_bit_identical(std::span<const rt::WindowResult> got,
                                 std::span<const rt::WindowResult> want, const std::string& what) {
  const auto got_split = by_stream(got);
  const auto want_split = by_stream(want);
  ASSERT_EQ(got_split.size(), want_split.size()) << what;
  for (const auto& [key, mine] : got_split) {
    ASSERT_TRUE(want_split.count(key))
        << what << " patient " << key.first << " workload " << key.second;
    const auto& theirs = want_split.at(key);
    ASSERT_EQ(mine.size(), theirs.size())
        << what << " patient " << key.first << " workload " << key.second;
    for (std::size_t w = 0; w < mine.size(); ++w) {
      EXPECT_EQ(mine[w].start_s, theirs[w].start_s) << what << " patient " << key.first;
      EXPECT_EQ(mine[w].decision_value, theirs[w].decision_value)
          << what << " patient " << key.first << " workload " << key.second << " window " << w;
      EXPECT_EQ(mine[w].label, theirs[w].label) << what << " patient " << key.first;
      EXPECT_EQ(mine[w].num_beats, theirs[w].num_beats) << what << " patient " << key.first;
      EXPECT_EQ(mine[w].quality, theirs[w].quality) << what << " patient " << key.first;
    }
  }
}

}  // namespace svt::test
