#include "rt/stream_classifier.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace svt::rt {

namespace {

std::vector<ServableModel> single_model(ServableModel model) {
  std::vector<ServableModel> models;
  models.push_back(std::move(model));
  return models;
}

}  // namespace

StreamClassifier::StreamClassifier(ServableModel model, StreamConfig config)
    : StreamClassifier(single_model(std::move(model)), std::move(config)) {}

StreamClassifier::StreamClassifier(std::vector<ServableModel> models, StreamConfig config)
    : models_(std::move(models)), extractor_(std::move(config)) {
  if (models_.size() != extractor_.num_workloads())
    throw std::invalid_argument(
        "StreamClassifier: one model per registered workload required (got " +
        std::to_string(models_.size()) + " for " +
        std::to_string(extractor_.num_workloads()) + " workloads)");
}

StreamClassifier::StreamClassifier(const core::TailoredDetector& detector, StreamConfig config)
    : StreamClassifier(ServableModel::from_detector(detector), std::move(config)) {}

void StreamClassifier::push_samples(int patient_id, std::span<const double> samples_mv) {
  extractor_.push_samples(patient_id, samples_mv, [this](ExtractedWindow&& window) {
    // The model's per-window front half (feature selection + scaling); the
    // back half (the decision kernel) is deferred to flush(), where all
    // queued rows go through one batched call per workload.
    queue_window(window);
  });
}

bool StreamClassifier::end_stream(int patient_id) {
  return extractor_.end_patient(
      patient_id, [this](ExtractedWindow&& window) { queue_window(window); });
}

void StreamClassifier::queue_window(const ExtractedWindow& window) {
  pending_rows_.push_back(models_[window.workload].prepare_row(window.features_view()));
  WindowResult meta;
  meta.patient_id = window.patient_id;
  meta.start_s = window.start_s;
  meta.num_beats = window.num_beats;
  meta.workload = window.workload;
  meta.quality = window.quality;
  pending_meta_.push_back(meta);
}

std::vector<WindowResult> StreamClassifier::flush() {
  std::vector<WindowResult> results = std::move(pending_meta_);
  std::vector<std::vector<double>> rows = std::move(pending_rows_);
  pending_meta_.clear();
  pending_rows_.clear();
  delivered_windows_ += results.size();
  if (results.empty()) return results;

  // One batched kernel call per workload: gather that workload's rows in
  // queue order, classify, scatter the values back. With a single workload
  // this is exactly one call over all rows in push order — the historical
  // (pre-multi-workload) behaviour, bit for bit.
  std::vector<std::size_t> index;
  std::vector<std::vector<double>> workload_rows;
  std::vector<double> values;
  KernelScratch scratch;
  for (std::uint32_t w = 0; w < models_.size(); ++w) {
    index.clear();
    for (std::size_t i = 0; i < results.size(); ++i)
      if (results[i].workload == w) index.push_back(i);
    if (index.empty()) continue;
    workload_rows.clear();
    for (const std::size_t i : index) workload_rows.push_back(std::move(rows[i]));

    models_[w].decision_values(workload_rows, values, scratch);
    for (std::size_t k = 0; k < index.size(); ++k) {
      results[index[k]].decision_value = values[k];
      results[index[k]].label = values[k] >= 0.0 ? +1 : -1;
    }
  }
  return results;
}

}  // namespace svt::rt
