// Fixed-point quantisation of a trained quadratic SVM for the bit-accurate
// integer inference engine (paper Section III, "Reducing bitwidths" +
// Figure 2).
//
// Pipeline mapping (all arithmetic is genuine int64/int128 integer math, with
// the exact widths published by hw::PipelineConfig):
//
//   features x_j, SVs    : Dbits two's complement, per-feature range
//                          [-2^Rj, 2^Rj] selected by Eq. 6 over the SV set;
//                          out-of-range values saturate.
//   MAC1 (dot product)   : products aligned to the widest feature scale by
//                          arithmetic right shifts of 2*(Rmax - Rj) -- the
//                          "scale-back operation" the paper implements with
//                          shifters; saturating accumulation.
//   +1 and truncation    : the kernel's +1 is added as round(1 / lsb_max^2);
//                          the low `dot_truncate_bits` (paper: 10) are then
//                          discarded.
//   square               : kernel value squared; low `square_truncate_bits`
//                          (paper: 10) discarded.
//   MAC2                 : multiplied by alpha_i*y_i quantised to Abits with
//                          a single global power-of-two range; accumulated
//                          with the quantised bias; the class is the sign of
//                          the accumulator (its MSB in hardware).
//
// The integer pipeline runs in one place, the window-blocked
// rt::batch_quantized_accumulators behind dequantized_decisions(): the
// serving engines and the paper's figures both classify through it. Its
// per-window scalar reference is a test oracle, built on kernel() and
// mac2_lsb(): tests/support/quantized_oracle.hpp.
//
// The paper's comparison point "same bitwidth throughout the pipeline, same
// scaling factor among features" (Figures 6/7, right) is the `homogeneous`
// flag: every feature is forced to the global worst-case range Rmax.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "hw/accelerator_model.hpp"
#include "rt/packed_kernel.hpp"
#include "svm/model.hpp"

namespace svt::core {

struct QuantConfig {
  int feature_bits = 9;        ///< Dbits.
  int alpha_bits = 15;         ///< Abits.
  /// Truncation depths after the dot product and the square. The paper
  /// discards 10 LSBs of raw-unit features whose typical values sit near the
  /// top of their power-of-two ranges; our features are mean-centred, so
  /// typical dot products sit ~4 bits lower in their range and the
  /// *equivalent retained precision* is 6 bits of truncation.
  /// The engine additionally truncates enough for the squarer input to stay
  /// bit-accurate in 64-bit arithmetic (width-driven truncation).
  int dot_truncate_bits = 6;
  int square_truncate_bits = 6;
  bool homogeneous = false;    ///< Single global feature scale (ablation).
};

/// The accelerator design point of a `num_features` x `num_support_vectors`
/// model: `quant`'s widths and truncation depths, or the 64-bit pipeline for
/// float inference (nullopt). This is what the benches and
/// TailoredDetector::hardware_cost cost; it deliberately omits the engine's
/// width-driven truncation (QuantizedModel::pipeline()).
hw::PipelineConfig design_pipeline(std::size_t num_features, std::size_t num_support_vectors,
                                   const std::optional<QuantConfig>& quant);

/// A quadratic SVM quantised for the Figure-2 accelerator.
class QuantizedModel {
 public:
  /// Quantise `model` (which must use the quadratic polynomial kernel).
  /// Throws std::invalid_argument for non-quadratic kernels, models without
  /// SVs, or configs whose stage widths exceed what bit-accurate int64/int128
  /// emulation supports (feature_bits <= 20 covers the paper's whole sweep).
  static QuantizedModel build(const svt::svm::SvmModel& model, const QuantConfig& config);

  /// The batch entry the serving engines and the figures use: quantise
  /// every window into the feature-major layout, run the blocked packed-SV
  /// integer kernel (rt::batch_quantized_accumulators) and scale each
  /// accumulator by mac2_lsb(). The label is the sign: value >= 0 is +1.
  /// `out` is resized; `scratch` stages the quantised batch and the
  /// accumulators, so repeated calls allocate nothing once warm. Throws
  /// std::invalid_argument on dimension mismatch.
  void dequantized_decisions(std::span<const std::vector<double>> xs, rt::KernelScratch& scratch,
                             std::vector<double>& out) const;

  /// The integer pipeline's description for rt::batch_quantized_accumulators.
  /// Its pointers borrow this model's arrays, so it is built on each call
  /// and must not outlive the model.
  rt::PackedQuantKernel kernel() const;

  /// Real value of one MAC2 accumulator LSB (positive).
  double mac2_lsb() const { return acc2_scale_; }

  /// Text serialisation mirroring SvmModel's format: the quantised primaries
  /// (config, Eq.-6 ranges, packed SV table, alpha_y weights, kernel +1 and
  /// bias at their pipeline scales) are written exactly; every derived field
  /// (shift table, stage widths, MAC2 LSB scale) is recomputed on load, so a
  /// loaded model is bit-identical to the freshly built one and deployments
  /// skip requantisation at startup. load() throws std::invalid_argument on
  /// corrupt input.
  void save(std::ostream& os) const;
  static QuantizedModel load(std::istream& is);

  /// The hardware design point this model runs on.
  const hw::PipelineConfig& pipeline() const { return pipeline_; }

  /// Per-feature Eq. 6 ranges R_j.
  const std::vector<int>& feature_ranges() const { return ranges_; }

  int global_alpha_range_log2() const { return alpha_range_log2_; }
  std::size_t num_features() const { return ranges_.size(); }
  std::size_t num_support_vectors() const { return q_alpha_y_.size(); }
  const QuantConfig& config() const { return config_; }

 private:
  QuantizedModel() = default;

  /// Recompute every derived field (product shifts, Rmax, pipeline widths
  /// including width-driven truncation, MAC2 LSB scale) from the primaries
  /// (config_, ranges_, alpha_range_log2_) and validate; shared by build()
  /// and load() so both construction paths agree bit-for-bit.
  void compute_derived(std::size_t nsv);

  QuantConfig config_;
  hw::PipelineConfig pipeline_;
  std::vector<int> ranges_;                ///< R_j per feature.
  std::vector<int> product_shifts_;        ///< 2*(Rmax - R_j) per feature.
  int max_range_log2_ = 0;                 ///< Rmax.
  int alpha_range_log2_ = 0;               ///< Global range of alpha_y.
  std::vector<std::int64_t> q_sv_packed_;  ///< Row-major flattened nsv x nfeat SV table.
  std::vector<std::int64_t> q_alpha_y_;
  std::int64_t q_one_ = 0;                 ///< Kernel coef0 at the MAC1 scale.
  __int128 q_bias_ = 0;                    ///< Bias at the MAC2 scale.
  double acc2_scale_ = 1.0;                ///< Real value of one MAC2 LSB.
};

}  // namespace svt::core
