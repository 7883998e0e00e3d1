#include "rt/packed_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace svt::rt {

PackedModel::PackedModel(const svt::svm::SvmModel& model) {
  using svt::svm::KernelType;
  if (model.kernel.type != KernelType::kPolynomial || model.kernel.degree != 2)
    throw std::invalid_argument("PackedModel: kernel must be quadratic polynomial");
  if (model.num_support_vectors() == 0)
    throw std::invalid_argument("PackedModel: model has no support vectors");
  nfeat_ = model.num_features();
  nsv_ = model.num_support_vectors();
  bias_ = model.bias;
  coef0_ = model.kernel.coef0;
  alpha_y_ = model.alpha_y;
  svs_.resize(nsv_ * nfeat_);
  for (std::size_t i = 0; i < nsv_; ++i)
    std::copy(model.support_vectors[i].begin(), model.support_vectors[i].end(),
              svs_.begin() + i * nfeat_);
}

void PackedModel::decision_values(std::span<const std::vector<double>> xs, std::span<double> out,
                                  KernelScratch& scratch) const {
  if (out.size() != xs.size())
    throw std::invalid_argument("PackedModel::decision_values: output size mismatch");
  const std::size_t nwin = xs.size();
  if (nwin == 0) return;
  auto& xt = scratch.xt;
  xt.resize(nwin * nfeat_);
  for (std::size_t w = 0; w < nwin; ++w) {
    if (xs[w].size() != nfeat_)
      throw std::invalid_argument("PackedModel::decision_values: feature-count mismatch");
    for (std::size_t f = 0; f < nfeat_; ++f) xt[f * nwin + w] = xs[w][f];
  }
  batch_quadratic_decisions(xt.data(), nwin, nfeat_, svs_.data(), nsv_, alpha_y_.data(), bias_,
                            coef0_, out.data());
}

}  // namespace svt::rt
