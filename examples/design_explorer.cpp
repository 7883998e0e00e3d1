// Design-space exploration: walk a custom tailoring flow step by step and
// print the hardware cost breakdown of every intermediate design -- the
// workflow an architect would use to pick an operating point beyond the
// paper's default (30 features / budgeted SVs / 9+15 bits).
#include <cstdio>

#include "core/experiment.hpp"
#include "core/feature_selection.hpp"
#include "core/quantize.hpp"
#include "hw/accelerator_model.hpp"

namespace {

void print_cost(const char* label, const svt::hw::CostReport& r) {
  std::printf("%-34s %9.1f nJ %9.4f mm2 %8.1f us\n", label, r.energy.total_nj,
              r.area.total_mm2, r.latency_us);
  std::printf("    area: mem %.4f + scale %.4f + mac1 %.4f + sq %.4f + mac2 %.4f + ctrl %.4f\n",
              r.area.sv_memory_mm2, r.area.scale_memory_mm2, r.area.mac1_mm2, r.area.squarer_mm2,
              r.area.mac2_mm2, r.area.control_mm2);
  std::printf("    energy: mem %.1f + mac1 %.1f + sq %.1f + mac2 %.1f + clk %.1f + static %.1f\n",
              r.energy.memory_nj, r.energy.mac1_nj, r.energy.squarer_nj, r.energy.mac2_nj,
              r.energy.cycle_overhead_nj, r.energy.static_nj);
}

}  // namespace

int main() {
  using namespace svt;
  core::ExperimentConfig config;
  config.dataset.windows_per_session = 12;
  config.max_folds = 6;
  const auto data = core::prepare_data(config);
  std::printf("exploring on %zu windows (%zu ictal)\n\n", data.dataset.num_windows(),
              data.dataset.num_seizure_windows());

  const auto order = core::rank_features_by_redundancy(data.matrix.samples);

  struct Point {
    const char* name;
    std::size_t nfeat;
    std::size_t budget;
    std::optional<core::QuantConfig> quant;
  };
  core::QuantConfig q9_15;
  core::QuantConfig q12_15;
  q12_15.feature_bits = 12;
  const Point points[] = {
      {"baseline 53 feat / float", 53, 0, std::nullopt},
      {"23 feat / float", 23, 0, std::nullopt},
      {"30 feat / 100 SV / float", 30, 100, std::nullopt},
      {"30 feat / 100 SV / 9+15 bit", 30, 100, q9_15},
      {"30 feat / 100 SV / 12+15 bit", 30, 100, q12_15},
  };

  for (const auto& p : points) {
    const auto keep = p.nfeat == 53 ? std::vector<std::size_t>{} : order.keep_set(p.nfeat);
    const auto r = core::evaluate_design_point(data, config, keep, p.budget, p.quant);
    std::printf("== %s: GM %.1f%% (Se %.1f / Sp %.1f), mean #SV %.1f\n", p.name,
                r.geometric_mean * 100.0, r.sensitivity * 100.0, r.specificity * 100.0,
                r.mean_support_vectors);
    print_cost("   cost", r.cost);
    std::printf("\n");
  }
  return 0;
}
