// Quickstart: generate a synthetic cohort, extract the paper's 53 features,
// tailor an SVM inference engine (feature selection + SV budget + 9/15-bit
// fixed point) and classify new windows on the engine that serves them --
// the whole public API in ~70 lines.
#include <cstdio>

#include "core/tailoring.hpp"
#include "ecg/dataset.hpp"
#include "features/extractor.hpp"
#include "rt/model_registry.hpp"

int main() {
  using namespace svt;

  // 1. Data: a paper-shaped synthetic cohort (7 patients, 24 sessions,
  //    34 annotated seizures, 3-minute windows).
  ecg::DatasetParams params;
  params.windows_per_session = 15;
  const auto dataset = ecg::generate_dataset(params);
  std::printf("cohort: %zu sessions, %zu windows, %zu ictal\n", dataset.num_sessions(),
              dataset.num_windows(), dataset.num_seizure_windows());

  // 2. Features: HRV, Lorentz-plot, EDR auto-regressive and EDR spectral
  //    features, 53 per window.
  const auto matrix = features::extract_feature_matrix(dataset);

  // 3. Hold out the last 4 sessions for testing; tailor on the rest.
  std::vector<std::size_t> train_rows, test_rows;
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    (matrix.session_index[i] < 20 ? train_rows : test_rows).push_back(i);
  }
  const auto train = matrix.select_rows(train_rows);
  const auto test = matrix.select_rows(test_rows);

  // 4. The paper's full tailoring flow: 30 features by correlation-driven
  //    selection, SV budget, quadratic kernel quantised to 9-bit features /
  //    15-bit coefficients for the Figure-2 accelerator.
  core::TailoringConfig config;
  config.num_features = 30;
  config.sv_budget = 100;
  const auto detector = core::tailor_detector(train.samples, train.labels, config);

  // 5. Classify unseen windows as the serving engines do: select + scale
  //    each feature vector, then one batch through the bit-accurate
  //    fixed-point engine; a decision value >= 0 means seizure.
  const auto served = rt::ServableModel::from_detector(detector);
  std::vector<std::vector<double>> rows(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) served.prepare_row(test.samples[i], rows[i]);
  std::vector<double> values;
  rt::KernelScratch scratch;
  served.decision_values(rows, values, scratch);
  std::size_t tp = 0, tn = 0, fp = 0, fn = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const int predicted = values[i] >= 0.0 ? +1 : -1;
    if (test.labels[i] > 0) {
      (predicted > 0 ? tp : fn) += 1;
    } else {
      (predicted > 0 ? fp : tn) += 1;
    }
  }
  std::printf("held-out sessions: TP=%zu FN=%zu FP=%zu TN=%zu\n", tp, fn, fp, tn);

  // 6. What does this detector cost in silicon?
  const auto cost = detector.hardware_cost();
  std::printf("tailored engine: %zu SVs, %zu features, %d/%d bits\n",
              detector.model().num_support_vectors(), detector.selected_features().size(),
              cost.config.feature_bits, cost.config.alpha_bits);
  std::printf("hardware: %.1f nJ/classification, %.4f mm2, %.1f us latency\n",
              cost.energy.total_nj, cost.area.total_mm2, cost.latency_us);
  return 0;
}
