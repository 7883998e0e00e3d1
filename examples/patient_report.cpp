// Per-patient evaluation report + model serialisation round trip.
//
// Trains the tailored detector with leave-one-session-out cross-validation
// and breaks the results down per patient -- the report a clinical study
// would look at -- then demonstrates saving and reloading the float model.
#include <cstdio>
#include <map>
#include <sstream>

#include "core/experiment.hpp"
#include "core/feature_selection.hpp"
#include "features/feature_types.hpp"
#include "svm/cross_validation.hpp"
#include "svm/model.hpp"

int main() {
  using namespace svt;
  core::ExperimentConfig config;
  config.dataset.windows_per_session = 12;
  const auto data = core::prepare_data(config);

  // Per-patient confusion, evaluated with the standard CV driver but keyed
  // by the patient owning each test session.
  std::vector<std::size_t> all_idx(data.matrix.num_features());
  for (std::size_t j = 0; j < all_idx.size(); ++j) all_idx[j] = j;
  svm::CvOptions options;
  options.train = config.train;
  options.post_gains = features::category_gains(all_idx);
  const auto cv = svm::cross_validate(data.matrix.samples, data.matrix.labels,
                                      data.matrix.session_index, options);

  std::map<int, svm::ConfusionMatrix> per_patient;
  for (const auto& fold : cv.folds) {
    if (!fold.trained) continue;
    const int patient = data.dataset.sessions[static_cast<std::size_t>(fold.group)].patient_id;
    per_patient[patient] += fold.confusion;
  }

  std::printf("per-patient seizure detection (quadratic SVM, 53 features):\n");
  std::printf("%8s %6s %6s %6s %8s\n", "patient", "TP", "FN", "FP", "Sp %");
  for (const auto& [patient, cm] : per_patient) {
    std::printf("%8s %6zu %6zu %6zu %8.1f\n",
                data.dataset.patients[static_cast<std::size_t>(patient)].name.c_str(), cm.tp,
                cm.fn, cm.fp, cm.specificity() * 100.0);
  }
  std::printf("cohort: Se %.1f%%  Sp %.1f%%  GM %.1f%%\n\n", cv.averages.sensitivity * 100.0,
              cv.averages.specificity * 100.0, cv.averages.geometric_mean * 100.0);

  // Serialisation round trip of a deployable model.
  svm::TrainParams train = config.train;
  svm::StandardScaler scaler;
  scaler.set_post_gains(options.post_gains);
  scaler.fit(data.matrix.samples);
  const auto scaled = scaler.transform_all(data.matrix.samples);
  const auto model = svm::train_svm(scaled, data.matrix.labels, svm::quadratic_kernel(), train);
  std::stringstream buffer;
  model.save(buffer);
  const auto reloaded = svm::SvmModel::load(buffer);
  std::printf("serialisation: %zu SVs saved, %zu reloaded, decisions identical: %s\n",
              model.num_support_vectors(), reloaded.num_support_vectors(),
              model.decision_value(scaled.front()) == reloaded.decision_value(scaled.front())
                  ? "yes"
                  : "NO");
  return 0;
}
