// Reproduces Figure 6: GM / energy / area surfaces as the feature width
// (Dbits, 7..17) and coefficient width (Abits, 13..17) vary, with the 10
// least-significant bits discarded after the dot product and the square.
// Evaluated with the *bit-accurate* integer engine on the reduced design
// (30 features, 68-SV budget), plus the paper's homogeneous-scaling
// comparison (one global feature scale, same width throughout).
//
// Paper landmarks: Dbits=9 / Abits=15 (red circle) loses ~1% GM vs float;
// GM degrades sharply toward Dbits=7; the homogeneous variant needs far
// wider words to match float (the paper quotes 64 bits, costing 2.4x energy
// and 6.2x area versus the per-feature design).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "core/experiment.hpp"
#include "core/feature_selection.hpp"
#include "core/quantize.hpp"

int main() {
  using namespace svt;
  const auto config = core::ExperimentConfig::from_env();
  const auto data = core::prepare_data(config);
  bench::print_banner("Figure 6: bit-width exploration (30 features, budgeted SVs)", config,
                      data);

  const auto order = core::rank_features_by_redundancy(data.matrix.samples);
  const auto keep = order.keep_set(30);
  // The paper budgets 68 of ~120 unbudgeted SVs. Our substrate's unbudgeted
  // models carry ~200 SVs at 30 features and their budget knee sits near
  // 100 (see fig5_sv_budget), so the default evaluates the same *relative*
  // operating point; SVT_BUDGET overrides (e.g. 68 for the literal paper
  // value).
  const std::size_t kBudget = core::env_u64("SVT_BUDGET", 100);

  // One grid over the same budgeted per-fold models: the float reference,
  // the per-feature Dbits x Abits sweep, then the homogeneous-scaling
  // ablation (one global feature range, Dbits = Abits = B).
  const std::vector<int> dbits = {7, 8, 9, 10, 11, 13, 15, 17};
  const std::vector<int> abits = {13, 15, 17};
  const std::vector<int> homog_bits = {9, 11, 13, 15, 17};
  std::vector<std::optional<core::QuantConfig>> engines = {std::nullopt};
  for (int a : abits) {
    for (int d : dbits) {
      core::QuantConfig qc;
      qc.feature_bits = d;
      qc.alpha_bits = a;
      engines.push_back(qc);
    }
  }
  for (int b : homog_bits) {
    core::QuantConfig qc;
    qc.feature_bits = b;
    qc.alpha_bits = b;
    qc.homogeneous = true;
    engines.push_back(qc);
  }
  const auto results = core::evaluate_design_points(data, config, keep, {kBudget}, engines);

  const auto& float_ref = results.front();
  std::printf("float reference: GM %.1f%% (Se %.1f, Sp %.1f), mean #SV %.1f\n\n",
              float_ref.geometric_mean * 100.0, float_ref.sensitivity * 100.0,
              float_ref.specificity * 100.0, float_ref.mean_support_vectors);

  common::CsvWriter csv({"dbits", "abits", "homogeneous", "gm_pct", "energy_nj", "area_mm2"});
  std::printf("per-feature Eq.6 ranges -- GM %% (energy nJ / area mm2):\n%6s", "D\\A");
  for (int a : abits) std::printf("        Abits=%-2d        ", a);
  std::printf("\n");
  for (std::size_t di = 0; di < dbits.size(); ++di) {
    std::printf("%6d", dbits[di]);
    for (std::size_t ai = 0; ai < abits.size(); ++ai) {
      const auto& r = results[1 + ai * dbits.size() + di];
      std::printf("  %5.1f (%7.1f/%6.4f)", r.geometric_mean * 100.0, r.cost.energy.total_nj,
                  r.cost.area.total_mm2);
      csv.add_row(dbits[di], abits[ai], 0, r.geometric_mean * 100.0, r.cost.energy.total_nj,
                  r.cost.area.total_mm2);
    }
    std::printf("%s\n", dbits[di] == 9 ? "   <-- Dbits=9 row (paper red circle at A=15)" : "");
  }

  std::printf("\nhomogeneous scaling (global range, Dbits = Abits = B):\n");
  for (std::size_t i = 0; i < homog_bits.size(); ++i) {
    const auto& r = results[1 + abits.size() * dbits.size() + i];
    std::printf("  B=%2d  GM %5.1f%%  (energy %7.1f nJ, area %6.4f mm2)\n", homog_bits[i],
                r.geometric_mean * 100.0, r.cost.energy.total_nj, r.cost.area.total_mm2);
    csv.add_row(homog_bits[i], homog_bits[i], 1, r.geometric_mean * 100.0,
                r.cost.energy.total_nj, r.cost.area.total_mm2);
  }

  csv.write(config.csv_dir + "/fig6_bitwidth.csv");
  std::printf("\npaper: 9/15 bits loses ~1%% GM vs float; homogeneous scaling needs much "
              "wider words (64 bits quoted) to match.\n");
  return 0;
}
