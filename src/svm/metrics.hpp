// Classification metrics (paper Eq. 2).
//
// The paper scores detectors by Sensitivity, Specificity and their Geometric
// Mean (GM), averaged over leave-one-session-out folds; GM is the headline
// classification-performance number throughout.
#pragma once

#include <span>
#include <string>

namespace svt::svm {

struct ConfusionMatrix {
  std::size_t tp = 0, tn = 0, fp = 0, fn = 0;

  std::size_t total() const { return tp + tn + fp + fn; }
  std::size_t positives() const { return tp + fn; }
  std::size_t negatives() const { return tn + fp; }

  /// Se = TP / (TP + FN). Returns NaN if there are no positives.
  double sensitivity() const;
  /// Sp = TN / (TN + FP). Returns NaN if there are no negatives.
  double specificity() const;
  /// GM = sqrt(Se * Sp). NaN if either side is undefined.
  double geometric_mean() const;

  /// Accumulate another window of results.
  ConfusionMatrix& operator+=(const ConfusionMatrix& other);
};

/// Tally predictions against truth (+1/-1 labels). Throws on size mismatch.
ConfusionMatrix tally(std::span<const int> truth, std::span<const int> predicted);

/// Aggregated fold metrics: averages are taken over folds where the metric
/// is defined (a fold with no seizure windows has undefined Se), exactly the
/// convention needed for per-session cross-validation on imbalanced data.
struct FoldAverages {
  double sensitivity = 0.0;
  double specificity = 0.0;
  double geometric_mean = 0.0;
  std::size_t folds_with_se = 0;
  std::size_t folds_with_sp = 0;
  std::size_t folds_with_gm = 0;
};

FoldAverages average_over_folds(std::span<const ConfusionMatrix> folds);

}  // namespace svt::svm
