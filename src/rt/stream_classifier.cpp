#include "rt/stream_classifier.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace svt::rt {

void classify_windows(std::span<const ExtractedWindow> windows,
                      std::span<const std::shared_ptr<const ServableModel>> models,
                      ClassifyScratch& scratch, std::vector<WindowResult>& results) {
  const std::size_t n = windows.size();
  results.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    results[k].patient_id = windows[k].patient_id;
    results[k].start_s = windows[k].start_s;
    results[k].num_beats = windows[k].num_beats;
    results[k].workload = windows[k].workload;
    results[k].quality = windows[k].quality;
  }

  // One batched kernel call per workload: gather that workload's windows in
  // order, classify, scatter the values back. A single-workload batch takes
  // exactly one call over every window in order.
  auto& index = scratch.index;
  auto& values = scratch.values;
  for (std::uint32_t w = 0; w < models.size(); ++w) {
    index.clear();
    for (std::size_t k = 0; k < n; ++k)
      if (windows[k].workload == w) index.push_back(k);
    if (index.empty()) continue;

    const ServableModel& model = *models[w];
    const std::size_t m = index.size();
    if (scratch.rows.size() < m) scratch.rows.resize(m);
    for (std::size_t k = 0; k < m; ++k)
      model.prepare_row(windows[index[k]].features_view(), scratch.rows[k]);
    model.decision_values({scratch.rows.data(), m}, values, scratch.kernel);
    for (std::size_t k = 0; k < m; ++k) {
      results[index[k]].decision_value = values[k];
      results[index[k]].label = values[k] >= 0.0 ? +1 : -1;
    }
  }
}

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
    : extractor_(std::move(config)) {
  if (models.size() != extractor_.num_workloads())
    throw std::invalid_argument(
        "StreamClassifier: one model per registered workload required (got " +
        std::to_string(models.size()) + " for " +
        std::to_string(extractor_.num_workloads()) + " workloads)");
  for (ServableModel& model : models)
    models_.push_back(std::make_shared<const ServableModel>(std::move(model)));
}

void StreamClassifier::push_samples(int patient_id, std::span<const double> samples_mv) {
  extractor_.push_samples(patient_id, samples_mv, [this](ExtractedWindow&& window) {
    pending_.push_back(std::move(window));
  });
}

bool StreamClassifier::end_stream(int patient_id) {
  return extractor_.end_patient(
      patient_id, [this](ExtractedWindow&& window) { pending_.push_back(std::move(window)); });
}

std::vector<WindowResult> StreamClassifier::flush() {
  const std::vector<ExtractedWindow> windows = std::exchange(pending_, {});
  std::vector<WindowResult> results;
  classify_windows(windows, models_, scratch_, results);
  delivered_windows_ += results.size();
  return results;
}

}  // namespace svt::rt
