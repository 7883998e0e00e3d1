// Packed (flattened) representation of a trained quadratic SVM for the
// streaming runtime: the SV table is stored once as a contiguous row-major
// matrix plus a per-SV weight array, so repeated batch classification pays
// no per-call packing cost and no vector<vector> pointer chasing. This is
// the float engine of rt::ServableModel. It matches the per-window
// svm::SvmModel::decision_value only to rounding (`s*s` against `pow(s,2)`),
// so the paper's float design points keep classifying with SvmModel.
#pragma once

#include <span>
#include <vector>

#include "rt/packed_kernel.hpp"
#include "svm/model.hpp"

namespace svt::rt {

class PackedModel {
 public:
  /// Pack `model`, which must use the quadratic polynomial kernel and have
  /// at least one support vector; throws std::invalid_argument otherwise.
  explicit PackedModel(const svt::svm::SvmModel& model);

  std::size_t num_features() const { return nfeat_; }
  std::size_t num_support_vectors() const { return nsv_; }

  /// Batched decision values, staging the feature-major batch in
  /// `scratch.xt` so repeated calls allocate nothing once warm. Matches
  /// SvmModel::decision_value per window to rounding (same accumulation
  /// order).
  /// Throws std::invalid_argument unless `out.size()` equals `xs.size()`
  /// and every row has num_features() entries.
  void decision_values(std::span<const std::vector<double>> xs, std::span<double> out,
                       KernelScratch& scratch) const;

 private:
  std::size_t nfeat_ = 0;
  std::size_t nsv_ = 0;
  std::vector<double> svs_;      ///< nsv x nfeat, row-major.
  std::vector<double> alpha_y_;  ///< nsv.
  double bias_ = 0.0;
  double coef0_ = 0.0;
};

}  // namespace svt::rt
