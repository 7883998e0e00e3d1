#include "rt/model_registry.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace svt::rt {

ServableModel::ServableModel(std::vector<std::size_t> selected, svm::StandardScaler scaler,
                             svm::SvmModel model, std::optional<core::QuantizedModel> quantized)
    : selected_(std::move(selected)),
      scaler_(std::move(scaler)),
      model_(std::move(model)),
      quantized_(std::move(quantized)) {
  if (model_.num_support_vectors() == 0)
    throw std::invalid_argument("ServableModel: model has no support vectors");
  if (selected_.empty())
    throw std::invalid_argument("ServableModel: empty feature selection");
  if (model_.num_features() != selected_.size())
    throw std::invalid_argument("ServableModel: model/selection feature-count mismatch");
  if (!scaler_.fitted() || scaler_.num_features() != selected_.size())
    throw std::invalid_argument("ServableModel: scaler not fitted to the selection");
  if (model_.kernel.type != svm::KernelType::kPolynomial || model_.kernel.degree != 2)
    throw std::invalid_argument("ServableModel: kernel must be quadratic polynomial");
  if (quantized_ && quantized_->num_features() != selected_.size())
    throw std::invalid_argument("ServableModel: quantised engine feature-count mismatch");
  // The packed float model is only read when there is no quantised engine,
  // so skip the SV-table copy then.
  if (!quantized_) packed_.emplace(model_);
}

ServableModel ServableModel::from_detector(const core::TailoredDetector& detector) {
  return ServableModel(detector.selected_features(), detector.scaler(), detector.model(),
                       detector.quantized());
}

void ServableModel::prepare_row(std::span<const double> raw_features,
                                std::vector<double>& out) const {
  out.clear();
  out.reserve(selected_.size());
  for (std::size_t j : selected_) {
    if (j >= raw_features.size())
      throw std::invalid_argument("ServableModel::prepare_row: feature vector too short");
    out.push_back(raw_features[j]);
  }
  scaler_.transform_inplace(out);
}

void ServableModel::decision_values(std::span<const std::vector<double>> rows,
                                    std::vector<double>& out, KernelScratch& scratch) const {
  if (quantized_) {
    quantized_->dequantized_decisions(rows, scratch, out);
  } else {
    out.resize(rows.size());
    packed_->decision_values(rows, out, scratch);
  }
}

void ServableModel::save(std::ostream& os) const {
  os << "svmtailor-servable v1\n";
  os << "selected " << selected_.size();
  for (std::size_t j : selected_) os << ' ' << j;
  os << '\n';
  scaler_.save(os);
  model_.save(os);
  os << "quantized " << (quantized_ ? 1 : 0) << '\n';
  if (quantized_) quantized_->save(os);
}

ServableModel ServableModel::load(std::istream& is) {
  using svm::io::expect_header;
  using svm::io::expect_tag;
  using svm::io::require_good;
  expect_header(is, "svmtailor-servable", "v1", "ServableModel::load");
  std::size_t nselected = 0;
  expect_tag(is, "selected", "ServableModel::load");
  is >> nselected;
  require_good(is, "ServableModel::load");
  std::vector<std::size_t> selected;
  svm::io::read_values(is, nselected, selected, "ServableModel::load");
  auto scaler = svm::StandardScaler::load(is);
  auto model = svm::SvmModel::load(is);
  int has_quantized = 0;
  expect_tag(is, "quantized", "ServableModel::load");
  is >> has_quantized;
  require_good(is, "ServableModel::load");
  std::optional<core::QuantizedModel> quantized;
  if (has_quantized != 0) quantized = core::QuantizedModel::load(is);
  return ServableModel(std::move(selected), std::move(scaler), std::move(model),
                       std::move(quantized));
}

ModelRegistry::ModelRegistry(ServableModel default_model) {
  defaults_[0] = std::make_shared<const ServableModel>(std::move(default_model));
}

void ModelRegistry::set_default(std::shared_ptr<const ServableModel> model) {
  set_default(0, std::move(model));
}

void ModelRegistry::set_default(std::uint32_t workload,
                                std::shared_ptr<const ServableModel> model) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (model) {
    defaults_[workload] = std::move(model);
  } else {
    defaults_.erase(workload);
  }
  ++generation_;
}

void ModelRegistry::set_default(std::uint32_t workload, ServableModel model) {
  set_default(workload, std::make_shared<const ServableModel>(std::move(model)));
}

void ModelRegistry::install(int patient_id, std::shared_ptr<const ServableModel> model) {
  install(0, patient_id, std::move(model));
}

void ModelRegistry::install(int patient_id, ServableModel model) {
  install(0, patient_id, std::make_shared<const ServableModel>(std::move(model)));
}

void ModelRegistry::install(std::uint32_t workload, int patient_id,
                            std::shared_ptr<const ServableModel> model) {
  if (!model) throw std::invalid_argument("ModelRegistry::install: null model");
  const std::lock_guard<std::mutex> lock(mutex_);
  models_[Key{workload, patient_id}] = std::move(model);
  ++generation_;
}

void ModelRegistry::install(std::uint32_t workload, int patient_id, ServableModel model) {
  install(workload, patient_id, std::make_shared<const ServableModel>(std::move(model)));
}

void ModelRegistry::erase(int patient_id) { erase(0, patient_id); }

void ModelRegistry::erase(std::uint32_t workload, int patient_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (models_.erase(Key{workload, patient_id}) > 0) ++generation_;
}

std::shared_ptr<const ServableModel> ModelRegistry::resolve(int patient_id) const {
  return resolve(0, patient_id);
}

std::shared_ptr<const ServableModel> ModelRegistry::resolve(std::uint32_t workload,
                                                            int patient_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(Key{workload, patient_id});
  if (it != models_.end()) return it->second;
  const auto def = defaults_.find(workload);
  return def != defaults_.end() ? def->second : nullptr;
}

std::size_t ModelRegistry::num_patient_models() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

std::uint64_t ModelRegistry::generation() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

}  // namespace svt::rt
