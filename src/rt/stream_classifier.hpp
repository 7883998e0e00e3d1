// Batched streaming inference runtime (single-threaded reference engine),
// and the classify step both serving engines share.
//
// A StreamClassifier owns the whole online path from raw single-lead ECG
// samples to seizure labels, for many concurrent patients:
//
//   push_samples(patient, chunk)        flush(): classify_windows
//   ┌──────────────────────────┐ queued ┌────────────────┐  batch  ┌────────┐
//   │ WindowExtractor          │  raw   │ select + scale │  rows   │ packed │
//   │ (ring -> QRS -> RR/EDR   │ windows│ (model's       │ ──────> │ kernel │
//   │  -> 53 features)         │ ─────> │  front half)   │         │ (f/fx) │
//   └──────────────────────────┘        └────────────────┘         └────────┘
//
// The extraction stage lives in rt::WindowExtractor (shared with the sharded
// engine); every window it emits is queued as extracted. flush() then runs
// classify_windows over the queue: per workload, one prepare_row per window
// (feature selection + scaling) and ONE batched ServableModel::decision_values
// call — the bit-exact fixed-point pipeline when the model carries a
// quantised engine, the packed float kernel (rt::PackedModel) otherwise.
// The sharded engine runs the same function on each patient batch, so a
// window's decision and label are made in exactly one place. Patient
// streams are fully isolated: results for a patient are identical whether
// its samples are pushed alone or interleaved with other patients'. This
// engine is the determinism oracle: the continuous sharded engine
// (rt::ShardedStreamClassifier) is tested bit-identical against it per
// patient, under any worker count. Unlike the sharded engine, which
// delivers only through its sink, this one collects: flush() returns the
// results, so a test can compare against them directly.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/tailoring.hpp"
#include "rt/engine.hpp"
#include "rt/model_registry.hpp"
#include "rt/window_extractor.hpp"

namespace svt::rt {

/// Staging for classify_windows, reused across calls so a serving loop
/// allocates nothing once warm. Not thread-safe; carries no model or
/// patient state.
struct ClassifyScratch {
  std::vector<std::size_t> index;         ///< Positions of one workload's windows.
  std::vector<std::vector<double>> rows;  ///< Prepared (selected + scaled) rows.
  std::vector<double> values;
  KernelScratch kernel;
};

/// The classify step of both engines: results[k] is windows[k] classified
/// by models[windows[k].workload] (`results` is resized). Per workload, the
/// windows are gathered in order, their rows prepared with
/// ServableModel::prepare_row, decided in one
/// ServableModel::decision_values call, and labelled +1 when the decision
/// value is >= 0, else -1. Every workload with windows needs a non-null
/// model. Throws what prepare_row or the engine throws; `results` is then
/// unspecified.
void classify_windows(std::span<const ExtractedWindow> windows,
                      std::span<const std::shared_ptr<const ServableModel>> models,
                      ClassifyScratch& scratch, std::vector<WindowResult>& results);

class StreamClassifier {
 public:
  /// Serve a deployable model directly (the same unit the registry and the
  /// network gateway serve, so a gateway reference run needs no training).
  /// Throws std::invalid_argument on a stream config WindowExtractor rejects
  /// (including a window that is not a whole number of strides or a stride
  /// that is not a whole number of EDR grid points), or a config
  /// registering more than one workload (this overload serves exactly one).
  explicit StreamClassifier(ServableModel model, StreamConfig config = {});

  /// Serve one model per registered workload (models[w] classifies workload
  /// w's windows). Throws std::invalid_argument when the count disagrees
  /// with the config's workload list.
  StreamClassifier(std::vector<ServableModel> models, StreamConfig config);

  /// Wrap a tailored detector: serves ServableModel::from_detector(detector),
  /// which copies the deployable parts bit-exactly.
  explicit StreamClassifier(const core::TailoredDetector& detector, StreamConfig config = {});

  /// Ingest a chunk of raw ECG samples (mV) for one patient. Chunks may be
  /// of any size; windows are emitted as soon as enough samples accumulate.
  /// A first push creates the patient's stream.
  void push_samples(int patient_id, std::span<const double> samples_mv);

  /// End a finite patient stream: flushes the detector tail and queues the
  /// trailing windows the live path holds back (see
  /// WindowExtractor::end_patient), then drops the patient's stream state.
  /// Returns whether the patient existed. Follow with flush() to classify.
  bool end_stream(int patient_id);

  /// Windows extracted and queued, awaiting the next flush().
  std::size_t pending_windows() const { return pending_.size(); }

  /// Classify every queued window (classify_windows: one batched call per
  /// workload) and return the results (stream order per patient, push
  /// order across patients). The queue is taken first, so if
  /// classification throws (a model whose selection indexes past its
  /// workload's features) those windows are dropped and the engine stays
  /// usable, as the sharded engine drops a failed batch.
  std::vector<WindowResult> flush();

  /// Every counter: the extractor's running totals, with delivered_windows
  /// counting the results flush() has returned.
  EngineStats stats() const {
    EngineStats s = extractor_.stats();
    s.delivered_windows = delivered_windows_;
    return s;
  }

  /// The stream's resolved workload list (see StreamConfig::workloads).
  std::size_t num_workloads() const { return extractor_.num_workloads(); }

  /// Samples currently buffered for a patient (0 for unknown patients).
  std::size_t buffered_samples(int patient_id) const {
    return extractor_.buffered_samples(patient_id);
  }

  std::size_t num_patients() const { return extractor_.num_patients(); }
  std::size_t window_samples() const { return extractor_.window_samples(); }
  std::size_t stride_samples() const { return extractor_.stride_samples(); }
  /// Detection lookahead: a window classifies once this many samples past
  /// its end have been pushed (see WindowExtractor::emission_lag_samples).
  std::size_t emission_lag_samples() const { return extractor_.emission_lag_samples(); }
  const StreamConfig& config() const { return extractor_.config(); }
  /// Workload 0's model (the only one for single-workload streams).
  const ServableModel& model() const { return *models_.front(); }
  const ServableModel& model(std::size_t workload) const { return *models_.at(workload); }

 private:
  /// One per workload, same order (never null).
  std::vector<std::shared_ptr<const ServableModel>> models_;
  WindowExtractor extractor_;
  std::vector<ExtractedWindow> pending_;  ///< Extracted, awaiting flush().
  ClassifyScratch scratch_;
  std::size_t delivered_windows_ = 0;  ///< Classified across all flushes.
};

}  // namespace svt::rt
