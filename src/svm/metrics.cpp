#include "svm/metrics.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace svt::svm {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

double ConfusionMatrix::sensitivity() const {
  const auto p = positives();
  return p == 0 ? kNaN : static_cast<double>(tp) / static_cast<double>(p);
}

double ConfusionMatrix::specificity() const {
  const auto n = negatives();
  return n == 0 ? kNaN : static_cast<double>(tn) / static_cast<double>(n);
}

double ConfusionMatrix::geometric_mean() const {
  const double se = sensitivity();
  const double sp = specificity();
  if (std::isnan(se) || std::isnan(sp)) return kNaN;
  return std::sqrt(se * sp);
}

ConfusionMatrix& ConfusionMatrix::operator+=(const ConfusionMatrix& other) {
  tp += other.tp;
  tn += other.tn;
  fp += other.fp;
  fn += other.fn;
  return *this;
}

ConfusionMatrix tally(std::span<const int> truth, std::span<const int> predicted) {
  if (truth.size() != predicted.size()) throw std::invalid_argument("tally: size mismatch");
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == +1) {
      if (predicted[i] == +1) {
        ++cm.tp;
      } else {
        ++cm.fn;
      }
    } else {
      if (predicted[i] == +1) {
        ++cm.fp;
      } else {
        ++cm.tn;
      }
    }
  }
  return cm;
}

FoldAverages average_over_folds(std::span<const ConfusionMatrix> folds) {
  FoldAverages avg;
  double se_acc = 0.0, sp_acc = 0.0, gm_acc = 0.0;
  for (const auto& f : folds) {
    const double se = f.sensitivity();
    const double sp = f.specificity();
    const double gm = f.geometric_mean();
    if (!std::isnan(se)) {
      se_acc += se;
      ++avg.folds_with_se;
    }
    if (!std::isnan(sp)) {
      sp_acc += sp;
      ++avg.folds_with_sp;
    }
    if (!std::isnan(gm)) {
      gm_acc += gm;
      ++avg.folds_with_gm;
    }
  }
  if (avg.folds_with_se > 0) avg.sensitivity = se_acc / static_cast<double>(avg.folds_with_se);
  if (avg.folds_with_sp > 0) avg.specificity = sp_acc / static_cast<double>(avg.folds_with_sp);
  if (avg.folds_with_gm > 0) avg.geometric_mean = gm_acc / static_cast<double>(avg.folds_with_gm);
  return avg;
}

}  // namespace svt::svm
