#include "hw/accelerator_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"
#include "hw/arith_model.hpp"
#include "hw/memory_model.hpp"

namespace svt::hw {

int PipelineConfig::mac1_accumulator_bits() const {
  return 2 * feature_bits + clog2(std::max<std::size_t>(num_features, 1)) + 1;
}

int PipelineConfig::kernel_input_bits() const {
  return std::max(2, mac1_accumulator_bits() - dot_truncate_bits);
}

int PipelineConfig::square_raw_bits() const { return 2 * kernel_input_bits(); }

int PipelineConfig::kernel_output_bits() const {
  return std::max(2, square_raw_bits() - square_truncate_bits);
}

int PipelineConfig::mac2_accumulator_bits() const {
  return alpha_bits + kernel_output_bits() +
         clog2(std::max<std::size_t>(num_support_vectors, 1)) + 1;
}

std::size_t PipelineConfig::sv_word_bits() const {
  return num_features * static_cast<std::size_t>(feature_bits) +
         static_cast<std::size_t>(alpha_bits);
}

std::size_t PipelineConfig::cycles_per_classification() const {
  // Per SV: Nfeat dot-product MACs, one square cycle, one MAC2 cycle.
  return num_support_vectors * (num_features + 2);
}

void PipelineConfig::validate() const {
  if (num_features == 0) throw std::invalid_argument("PipelineConfig: num_features == 0");
  if (num_support_vectors == 0)
    throw std::invalid_argument("PipelineConfig: num_support_vectors == 0");
  if (feature_bits < 2 || feature_bits > 64)
    throw std::invalid_argument("PipelineConfig: feature_bits outside [2,64]");
  if (alpha_bits < 2 || alpha_bits > 64)
    throw std::invalid_argument("PipelineConfig: alpha_bits outside [2,64]");
  if (dot_truncate_bits < 0 || square_truncate_bits < 0)
    throw std::invalid_argument("PipelineConfig: negative truncation");
}

CostReport estimate_cost(const PipelineConfig& config, const TechModel& tech) {
  config.validate();
  CostReport report;
  report.config = config;

  // --- Memories -------------------------------------------------------------
  SramMacro sv_mem{config.num_support_vectors, config.sv_word_bits()};
  // Scale-factor memory: one 6-bit Rj per feature (range [-8,20] fits in 6
  // bits including sign). Only needed below 64-bit datapaths; its cost is
  // charged always -- it is negligible, and charging it uniformly keeps the
  // model monotone in the widths.
  SramMacro scale_mem{config.num_features, 6};

  // --- Area -------------------------------------------------------------------
  constexpr double kUm2PerMm2 = 1e6;
  AreaBreakdown& area = report.area;
  area.sv_memory_mm2 = sv_mem.area_um2(tech) / kUm2PerMm2;
  area.scale_memory_mm2 = scale_mem.area_um2(tech) / kUm2PerMm2;
  area.mac1_mm2 = (multiplier_area_um2(config.feature_bits, config.feature_bits, tech) +
                   adder_area_um2(config.mac1_accumulator_bits(), tech)) /
                  kUm2PerMm2;
  area.squarer_mm2 = (multiplier_area_um2(config.kernel_input_bits(),
                                          config.kernel_input_bits(), tech) +
                      adder_area_um2(config.kernel_output_bits(), tech)) /
                     kUm2PerMm2;
  area.mac2_mm2 = (multiplier_area_um2(config.alpha_bits, config.kernel_output_bits(), tech) +
                   adder_area_um2(config.mac2_accumulator_bits(), tech)) /
                  kUm2PerMm2;
  area.control_mm2 = tech.control_area_um2 / kUm2PerMm2;
  area.total_mm2 = area.sv_memory_mm2 + area.scale_memory_mm2 + area.mac1_mm2 +
                   area.squarer_mm2 + area.mac2_mm2 + area.control_mm2;

  // --- Latency ------------------------------------------------------------------
  const double cycles = static_cast<double>(config.cycles_per_classification());
  report.latency_us = cycles / tech.clock_mhz;

  // --- Energy per classification ---------------------------------------------
  constexpr double kPjPerNj = 1e3;
  EnergyBreakdown& energy = report.energy;
  const double nsv = static_cast<double>(config.num_support_vectors);
  const double nfeat = static_cast<double>(config.num_features);

  // One SV-word read per support vector plus one scale-factor read per
  // feature (scale factors are read once per classification, not per SV:
  // the test vector is scaled while it is loaded).
  energy.memory_nj = (nsv * sv_mem.read_energy_pj(tech) +
                      nfeat * scale_mem.read_energy_pj(tech)) /
                     kPjPerNj;
  energy.mac1_nj =
      nsv * nfeat * mac_energy_pj(config.feature_bits, config.feature_bits, tech) / kPjPerNj;
  energy.squarer_nj = nsv *
                      mac_energy_pj(config.kernel_input_bits(), config.kernel_input_bits(), tech) /
                      kPjPerNj;
  energy.mac2_nj =
      nsv * mac_energy_pj(config.alpha_bits, config.kernel_output_bits(), tech) / kPjPerNj;
  energy.cycle_overhead_nj = cycles * tech.cycle_overhead_pj / kPjPerNj;
  // Static (leakage + clock tree) power over the classification latency.
  // Units: (mW/mm^2 * mm^2) * us = mW * us = 1e-3 W * 1e-6 s = 1 nJ.
  energy.static_nj = tech.static_power_mw_per_mm2 * area.total_mm2 * report.latency_us;
  energy.total_nj = energy.memory_nj + energy.mac1_nj + energy.squarer_nj + energy.mac2_nj +
                    energy.cycle_overhead_nj + energy.static_nj;
  return report;
}

}  // namespace svt::hw
