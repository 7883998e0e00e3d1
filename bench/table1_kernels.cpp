// Reproduces Table I: classification performance of floating-point SVM
// implementations with linear, quadratic, cubic and Gaussian kernels,
// evaluated with leave-one-session-out cross-validation (Se / Sp / GM
// averaged over folds).
//
// Stdout carries no timing (each kernel's wall time goes to stderr), so it
// is byte-stable and pinned by tests/golden/table1_kernels.txt.
//
// Paper reference values:
//   Linear     Sp 75.6  Se 82.3  GM 72.9
//   Quadratic  Sp 92.3  Se 86.6  GM 86.8
//   Cubic      Sp 95.3  Se 86.6  GM 88.0
//   Gaussian   Sp 97.0  Se 79.6  GM 82.6
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "core/experiment.hpp"
#include "features/feature_types.hpp"
#include "svm/cross_validation.hpp"

int main() {
  using namespace svt;
  const auto config = core::ExperimentConfig::from_env();
  const auto data = core::prepare_data(config);
  bench::print_banner("Table I: SVM kernel comparison (float)", config, data);

  // RBF gamma by the "scale" heuristic in the *scaled* feature space the CV
  // driver trains in (z-score -> variance gain_j^2 per feature).
  std::vector<std::size_t> all_features(data.matrix.num_features());
  for (std::size_t j = 0; j < all_features.size(); ++j) all_features[j] = j;
  const auto gains = features::category_gains(all_features);
  double gain2_acc = 0.0;
  for (double v : gains) gain2_acc += v * v;
  const double gamma = 1.0 / gain2_acc;  // = 1 / (nfeat * mean scaled variance).

  std::vector<svm::Kernel> kernels = {
      svm::linear_kernel(),
      svm::quadratic_kernel(),
      svm::cubic_kernel(),
      svm::gaussian_kernel(gamma),
  };

  common::CsvWriter csv({"kernel", "sp_pct", "se_pct", "gm_pct", "mean_nsv"});
  std::printf("%-12s %8s %8s %8s %10s\n", "SVM Kernel", "Sp %", "Se %", "GM", "mean#SV");

  const auto groups = data.groups(config.max_folds);
  for (const auto& kernel : kernels) {
    bench::Stopwatch timer;
    svm::CvOptions options;
    options.kernel = kernel;
    options.train = config.train;
    options.post_gains = gains;
    const auto cv =
        svm::cross_validate(data.matrix.samples, data.matrix.labels, groups, options);
    const double sp = cv.averages.specificity * 100.0;
    const double se = cv.averages.sensitivity * 100.0;
    const double gm = cv.averages.geometric_mean * 100.0;
    std::printf("%-12s %8.1f %8.1f %8.1f %10.1f\n", kernel.name().c_str(), sp, se, gm,
                cv.mean_support_vectors());
    std::fprintf(stderr, "%-12s %.1f s\n", kernel.name().c_str(), timer.seconds());
    csv.add_row(kernel.name(), sp, se, gm, cv.mean_support_vectors());
  }
  csv.write(config.csv_dir + "/table1_kernels.csv");
  std::printf("\npaper:   linear 75.6/82.3/72.9  quadratic 92.3/86.6/86.8  "
              "cubic 95.3/86.6/88.0  gaussian 97.0/79.6/82.6\n");
  return 0;
}
