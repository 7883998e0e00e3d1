// Cost model of the Figure-2 inference accelerator.
//
// Pipeline (paper Figure 2): an SV memory feeds a first MAC unit computing
// the dot product x_T . x_i over Nfeat cycles; the result (+1) is squared to
// evaluate the quadratic kernel; a second MAC accumulates alpha_i*y_i-weighted
// kernel values over the NSV support vectors; the output class is the sign of
// the final accumulator after adding the bias.
//
// This header also owns the *width contract*: the exact bit widths of every
// pipeline stage as a function of (Dbits, Abits, truncations, Nfeat, NSV).
// The bit-accurate quantised inference engine (svt::core::QuantizedModel)
// uses the same widths, so the GM/energy/area trade-offs measured by the
// benches are self-consistent.
#pragma once

#include <cstddef>

#include "hw/tech_model.hpp"

namespace svt::hw {

/// A point in the accelerator design space.
struct PipelineConfig {
  std::size_t num_features = 53;
  std::size_t num_support_vectors = 120;
  int feature_bits = 64;     ///< Dbits: feature representation width.
  int alpha_bits = 64;       ///< Abits: alpha_i*y_i representation width.
  int dot_truncate_bits = 10;     ///< LSBs discarded after the dot product.
  int square_truncate_bits = 10;  ///< LSBs discarded after the square.

  // --- Derived stage widths (the hardware/software width contract) ---------
  /// MAC1 accumulator: product width 2*Dbits grown by log2(Nfeat) additions,
  /// +1 for the kernel's "+1" headroom.
  int mac1_accumulator_bits() const;
  /// Kernel input width after discarding dot_truncate_bits LSBs.
  int kernel_input_bits() const;
  /// Squarer output width before truncation.
  int square_raw_bits() const;
  /// Kernel value width after discarding square_truncate_bits LSBs.
  int kernel_output_bits() const;
  /// MAC2 accumulator: Abits x kernel product grown by log2(NSV) additions,
  /// +1 for the bias.
  int mac2_accumulator_bits() const;
  /// SV memory word: one support vector (Nfeat features) + its alpha_y.
  std::size_t sv_word_bits() const;
  /// Cycles per classification: Nfeat MAC1 cycles + square + MAC2 per SV.
  std::size_t cycles_per_classification() const;

  /// Validate (positive sizes, widths in [2,63], truncations >= 0); throws
  /// std::invalid_argument otherwise.
  void validate() const;
};

/// Itemised cost estimate.
struct AreaBreakdown {
  double sv_memory_mm2 = 0.0;
  double scale_memory_mm2 = 0.0;  ///< Per-feature Rj scale factors.
  double mac1_mm2 = 0.0;
  double squarer_mm2 = 0.0;
  double mac2_mm2 = 0.0;
  double control_mm2 = 0.0;
  double total_mm2 = 0.0;
};

struct EnergyBreakdown {
  double memory_nj = 0.0;
  double mac1_nj = 0.0;
  double squarer_nj = 0.0;
  double mac2_nj = 0.0;
  double cycle_overhead_nj = 0.0;
  double static_nj = 0.0;
  double total_nj = 0.0;
};

struct CostReport {
  PipelineConfig config;
  AreaBreakdown area;
  EnergyBreakdown energy;
  double latency_us = 0.0;  ///< Per classification at the model's clock.
};

/// Evaluate the cost model at a design point.
CostReport estimate_cost(const PipelineConfig& config,
                         const TechModel& tech = default_tech_model());

}  // namespace svt::hw
