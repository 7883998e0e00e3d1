// Reproduces Figure 5: classification performance and resource requirements
// as the support-vector budget tightens (low-norm removal + retraining,
// paper Eq. 5), at 64-bit precision on the full feature set.
//
// Paper landmarks: GM only marginally affected down to ~50 SVs, sharply
// worse after; at the ~50-SV design point GM is -1.5% for -76% energy and
// -45% area. Includes the no-retraining truncation ablation.
//
// Stdout carries no timing (the total wall time goes to stderr), so it is
// byte-stable and pinned by tests/golden/fig5_sv_budget.txt.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "core/experiment.hpp"
#include "core/sv_budget.hpp"
#include "svm/cross_validation.hpp"

int main() {
  using namespace svt;
  const auto config = core::ExperimentConfig::from_env();
  const auto data = core::prepare_data(config);
  bench::print_banner("Figure 5: SV-budget sweep (64-bit pipeline)", config, data);

  common::CsvWriter csv({"budget", "gm_pct", "se_pct", "sp_pct", "mean_nsv", "energy_nj",
                         "area_mm2", "mode"});

  // One grid over the same per-fold models: the unbudgeted reference (budget
  // 0), then each tighter budget continuing from the previous survivors.
  bench::Stopwatch total;
  const std::vector<std::size_t> budgets = {0, 160, 140, 120, 100, 80, 68, 60, 50, 40, 30, 20};
  const auto results =
      core::evaluate_design_points(data, config, /*keep=*/{}, budgets, {std::nullopt});
  const auto& base = results.front();
  std::printf("%7s %8s %8s %8s %9s %12s %10s\n", "budget", "GM %", "Se %", "Sp %", "mean#SV",
              "energy[nJ]", "area[mm2]");
  std::printf("%7s %8.1f %8.1f %8.1f %9.1f %12.1f %10.4f\n", "none",
              base.geometric_mean * 100.0, base.sensitivity * 100.0, base.specificity * 100.0,
              base.mean_support_vectors, base.cost.energy.total_nj, base.cost.area.total_mm2);
  csv.add_row(0, base.geometric_mean * 100.0, base.sensitivity * 100.0,
              base.specificity * 100.0, base.mean_support_vectors, base.cost.energy.total_nj,
              base.cost.area.total_mm2, "unbudgeted");

  for (std::size_t b = 1; b < budgets.size(); ++b) {
    const auto& r = results[b];
    const char* marker = budgets[b] == 50 ? "  <-- paper design point" : "";
    std::printf("%7zu %8.1f %8.1f %8.1f %9.1f %12.1f %10.4f%s\n", budgets[b],
                r.geometric_mean * 100.0, r.sensitivity * 100.0, r.specificity * 100.0,
                r.mean_support_vectors, r.cost.energy.total_nj, r.cost.area.total_mm2, marker);
    csv.add_row(budgets[b], r.geometric_mean * 100.0, r.sensitivity * 100.0,
                r.specificity * 100.0, r.mean_support_vectors, r.cost.energy.total_nj,
                r.cost.area.total_mm2, "retrain");
    if (budgets[b] == 50) {
      std::printf("        at 50 SVs: energy %+.0f%%, area %+.0f%%, GM %+.1f pts "
                  "(paper: -76%%, -45%%, -1.5%%)\n",
                  (r.cost.energy.total_nj / base.cost.energy.total_nj - 1.0) * 100.0,
                  (r.cost.area.total_mm2 / base.cost.area.total_mm2 - 1.0) * 100.0,
                  (r.geometric_mean - base.geometric_mean) * 100.0);
    }
  }

  // Ablation: truncate the SV set by norm *without* retraining.
  std::printf("\nablation: highest-norm truncation without retraining\n");
  for (std::size_t budget : {std::size_t{80}, std::size_t{50}}) {
    svm::CvOptions options;
    options.train = config.train;
    std::vector<std::size_t> all_idx(data.matrix.num_features());
    for (std::size_t j = 0; j < all_idx.size(); ++j) all_idx[j] = j;
    options.post_gains = features::category_gains(all_idx);
    options.transform = [budget](const svm::SvmModel& m, std::span<const std::vector<double>>,
                                 std::span<const int>) {
      return core::truncate_support_vectors(m, budget);
    };
    const auto cv = svm::cross_validate(data.matrix.samples, data.matrix.labels,
                                        data.groups(config.max_folds), options);
    std::printf("%7zu %8.1f  (vs retraining above)\n", budget,
                cv.averages.geometric_mean * 100.0);
    csv.add_row(budget, cv.averages.geometric_mean * 100.0, cv.averages.sensitivity * 100.0,
                cv.averages.specificity * 100.0, cv.mean_support_vectors(), 0.0, 0.0,
                "truncate");
  }

  csv.write(config.csv_dir + "/fig5_sv_budget.csv");
  std::fprintf(stderr, "total %.1f s\n", total.seconds());
  return 0;
}
