// Reproduces Figure 7: the combined tailoring flow. Left: GM / energy / area
// after each optimisation stage -- (a) 53 -> 30 features, (b) 68-SV budget,
// (c) 9-bit features + 15-bit coefficients -- normalised to the 64-bit
// unoptimised baseline, with per-step percentages. Right: the
// homogeneous-scaling 32-bit / 16-bit pipelines for comparison.
//
// Paper landmarks: overall 12.5x energy and 16x area gain for <= 3.2% GM
// loss; the 32-bit homogeneous pipeline needs 4x more energy and 7x more
// area than the fully tailored design while losing 7% GM.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "core/experiment.hpp"
#include "core/feature_selection.hpp"
#include "core/quantize.hpp"
#include "hw/accelerator_model.hpp"

int main() {
  using namespace svt;
  const auto config = core::ExperimentConfig::from_env();
  const auto data = core::prepare_data(config);
  bench::print_banner("Figure 7: combined optimisation flow", config, data);

  const auto order = core::rank_features_by_redundancy(data.matrix.samples);
  const auto keep30 = order.keep_set(30);

  // Two grids, each sharing its per-fold models. The full feature set: the
  // float baseline and the homogeneous 16-bit pipeline (right-hand panel).
  core::QuantConfig h16;
  h16.feature_bits = 16;
  h16.alpha_bits = 16;
  h16.homogeneous = true;
  const auto full = core::evaluate_design_points(data, config, {}, {0}, {std::nullopt, h16});
  // 30 features, unbudgeted and at the substrate's measured budget knee
  // (~100 SVs at 30 features; the paper's knee was ~50-68 of a ~120-SV
  // model -- same relative point), in float and at Dbits=9 / Abits=15.
  // SVT_BUDGET overrides, e.g. SVT_BUDGET=68 for the paper-literal value.
  const std::size_t budget = core::env_u64("SVT_BUDGET", 100);
  const auto reduced = core::evaluate_design_points(data, config, keep30, {0, budget},
                                                    {std::nullopt, core::QuantConfig{}});

  struct Stage {
    std::string name;
    core::DesignPointResult result;
  };
  const std::vector<Stage> stages = {
      {"64-bit baseline (53 feat)", full[0]},
      {"+ feature reduction (30)", reduced[0]},
      {"+ SV budget (" + std::to_string(budget) + ")", reduced[2]},
      {"+ bit reduction (9/15)", reduced[3]},
  };

  const auto& base = stages.front().result;
  common::CsvWriter csv({"stage", "gm_pct", "energy_nj", "area_mm2", "gm_rel", "energy_rel",
                         "area_rel"});
  std::printf("%-28s %8s %12s %10s  %7s %8s %8s\n", "stage", "GM %", "energy[nJ]", "area[mm2]",
              "GM rel", "E rel", "A rel");
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& r = stages[s].result;
    std::printf("%-28s %8.1f %12.1f %10.4f  %7.3f %8.3f %8.3f\n", stages[s].name.c_str(),
                r.geometric_mean * 100.0, r.cost.energy.total_nj, r.cost.area.total_mm2,
                r.geometric_mean / base.geometric_mean,
                r.cost.energy.total_nj / base.cost.energy.total_nj,
                r.cost.area.total_mm2 / base.cost.area.total_mm2);
    csv.add_row(stages[s].name, r.geometric_mean * 100.0, r.cost.energy.total_nj,
                r.cost.area.total_mm2, r.geometric_mean / base.geometric_mean,
                r.cost.energy.total_nj / base.cost.energy.total_nj,
                r.cost.area.total_mm2 / base.cost.area.total_mm2);
    if (s > 0) {
      const auto& p = stages[s - 1].result;
      std::printf("    step: GM %+.1f pts, energy %+.0f%%, area %+.0f%%\n",
                  (r.geometric_mean - p.geometric_mean) * 100.0,
                  (r.cost.energy.total_nj / p.cost.energy.total_nj - 1.0) * 100.0,
                  (r.cost.area.total_mm2 / p.cost.area.total_mm2 - 1.0) * 100.0);
    }
  }
  const auto& final = stages.back().result;
  std::printf("\noverall: %.1fx energy, %.1fx area, GM %+.1f pts  (paper: 12.5x, 16x, -3.2%%)\n",
              base.cost.energy.total_nj / final.cost.energy.total_nj,
              base.cost.area.total_mm2 / final.cost.area.total_mm2,
              (final.geometric_mean - base.geometric_mean) * 100.0);

  // Right-hand comparison: homogeneous 32-bit / 16-bit pipelines on the full
  // 53-feature, unbudgeted model. GM for 16 bits comes from the bit-accurate
  // engine; at 32 bits the engine's intermediate widths exceed what int64
  // emulation supports, and homogeneous quantisation at >= 20 bits is
  // empirically indistinguishable from float on this data, so the float GM
  // is reported (matching the paper's observation that wide homogeneous
  // pipelines recover the float accuracy while paying full hardware cost).
  std::printf("\nhomogeneous single-scale pipelines (53 features, no SV budget):\n");
  const auto& r16 = full[1];

  hw::PipelineConfig p32;
  p32.num_features = 53;
  p32.num_support_vectors =
      static_cast<std::size_t>(base.mean_support_vectors + 0.5);
  p32.feature_bits = 32;
  p32.alpha_bits = 32;
  const auto c32 = hw::estimate_cost(p32);

  std::printf("  16-bit: GM %5.1f%%  energy %8.1f nJ (%.2fx tailored)  area %6.4f mm2 (%.2fx)\n",
              r16.geometric_mean * 100.0, r16.cost.energy.total_nj,
              r16.cost.energy.total_nj / final.cost.energy.total_nj, r16.cost.area.total_mm2,
              r16.cost.area.total_mm2 / final.cost.area.total_mm2);
  std::printf("  32-bit: GM %5.1f%% (float-equivalent)  energy %8.1f nJ (%.2fx tailored)  "
              "area %6.4f mm2 (%.2fx)\n",
              base.geometric_mean * 100.0, c32.energy.total_nj,
              c32.energy.total_nj / final.cost.energy.total_nj, c32.area.total_mm2,
              c32.area.total_mm2 / final.cost.area.total_mm2);
  std::printf("  paper: 32-bit homogeneous costs 4x energy / 7x area vs the tailored design.\n");

  csv.add_row("homogeneous 16-bit", r16.geometric_mean * 100.0, r16.cost.energy.total_nj,
              r16.cost.area.total_mm2, r16.geometric_mean / base.geometric_mean,
              r16.cost.energy.total_nj / base.cost.energy.total_nj,
              r16.cost.area.total_mm2 / base.cost.area.total_mm2);
  csv.add_row("homogeneous 32-bit", base.geometric_mean * 100.0, c32.energy.total_nj,
              c32.area.total_mm2, 1.0, c32.energy.total_nj / base.cost.energy.total_nj,
              c32.area.total_mm2 / base.cost.area.total_mm2);
  csv.write(config.csv_dir + "/fig7_combined.csv");
  return 0;
}
