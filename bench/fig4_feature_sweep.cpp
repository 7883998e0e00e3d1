// Reproduces Figure 4: classification performance (GM) and resource
// requirements (energy per classification, accelerator area) as the feature
// set shrinks along the correlation-driven elimination order, at 64-bit
// precision.
//
// Paper landmarks: GM worsens slowly down to ~15 features and collapses
// below; at 23 features energy is -65% and area -42% for a -1.2% GM loss
// (dashed line); between 15 and 8 features resources *rise* again because
// training selects more support vectors.
//
// Stdout carries no timing (each design point's wall time goes to stderr),
// so it is byte-stable and pinned by tests/golden/fig4_feature_sweep.txt.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "core/experiment.hpp"
#include "core/feature_selection.hpp"

int main() {
  using namespace svt;
  const auto config = core::ExperimentConfig::from_env();
  const auto data = core::prepare_data(config);
  bench::print_banner("Figure 4: feature-count sweep (64-bit pipeline)", config, data);

  const auto order = core::rank_features_by_redundancy(data.matrix.samples);
  const std::vector<std::size_t> sizes = {53, 45, 38, 33, 30, 27, 25, 23,
                                          20, 17, 15, 12, 10, 8,  6,  5};

  common::CsvWriter csv({"num_features", "gm_pct", "se_pct", "sp_pct", "mean_nsv",
                         "energy_nj", "area_mm2", "order"});
  std::printf("%5s %8s %8s %8s %9s %12s %10s\n", "nfeat", "GM %", "Se %", "Sp %", "mean#SV",
              "energy[nJ]", "area[mm2]");

  double base_energy = 0.0, base_area = 0.0, base_gm = 0.0;
  for (std::size_t k : sizes) {
    bench::Stopwatch timer;
    const auto keep = order.keep_set(k);
    const auto r = core::evaluate_design_point(data, config, keep, /*sv_budget=*/0,
                                               /*quant=*/std::nullopt);
    if (k == 53) {
      base_energy = r.cost.energy.total_nj;
      base_area = r.cost.area.total_mm2;
      base_gm = r.geometric_mean;
    }
    const char* marker = k == 23 ? "  <-- paper design point" : "";
    std::printf("%5zu %8.1f %8.1f %8.1f %9.1f %12.1f %10.4f%s\n", k,
                r.geometric_mean * 100.0, r.sensitivity * 100.0, r.specificity * 100.0,
                r.mean_support_vectors, r.cost.energy.total_nj, r.cost.area.total_mm2, marker);
    std::fprintf(stderr, "%5zu features %.1f s\n", k, timer.seconds());
    csv.add_row(k, r.geometric_mean * 100.0, r.sensitivity * 100.0, r.specificity * 100.0,
                r.mean_support_vectors, r.cost.energy.total_nj, r.cost.area.total_mm2,
                "correlation");

    if (k == 23 && base_energy > 0.0) {
      std::printf("      at 23 features: energy %+.0f%%, area %+.0f%%, GM %+.1f pts "
                  "(paper: -65%%, -42%%, -1.2%%)\n",
                  (r.cost.energy.total_nj / base_energy - 1.0) * 100.0,
                  (r.cost.area.total_mm2 / base_area - 1.0) * 100.0,
                  (r.geometric_mean - base_gm) * 100.0);
    }
  }

  // Ablation: random removal order at three sizes -- the correlation-driven
  // order should retain clearly more GM at small sizes.
  std::printf("\nablation: random removal order (seed 7)\n");
  const auto random_order = core::random_removal_order(data.matrix.num_features(), 7);
  for (std::size_t k : {std::size_t{30}, std::size_t{23}, std::size_t{15}}) {
    const auto keep = random_order.keep_set(k);
    const auto r = core::evaluate_design_point(data, config, keep, 0, std::nullopt);
    std::printf("%5zu %8.1f  (correlation-driven above)\n", k, r.geometric_mean * 100.0);
    csv.add_row(k, r.geometric_mean * 100.0, r.sensitivity * 100.0, r.specificity * 100.0,
                r.mean_support_vectors, r.cost.energy.total_nj, r.cost.area.total_mm2, "random");
  }

  csv.write(config.csv_dir + "/fig4_feature_sweep.csv");
  return 0;
}
