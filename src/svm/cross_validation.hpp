// Leave-one-group-out cross-validation.
//
// The paper evaluates every design point over 24 folds, each holding out one
// recording session. make_folds() is the one fold builder: it splits the
// data by group id and z-scores each fold on its own training split.
// cross_validate() trains one model per fold over it (any kernel, with an
// optional per-fold model transform); core::evaluate_design_points runs the
// paper's design-space grid over the same folds.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "svm/metrics.hpp"
#include "svm/model.hpp"
#include "svm/scaler.hpp"
#include "svm/trainer.hpp"

namespace svt::svm {

/// One fold: the held-out group and the rest, both z-scored by a scaler fitted
/// on the training split (the usual guard against test-set leakage).
struct Fold {
  int group = 0;
  std::vector<std::vector<double>> train_x, test_x;
  std::vector<int> train_y, test_y;
  bool usable = false;  ///< False if training lacks a class (then nothing is scaled).
};

/// One fold per non-negative group id, in ascending id order. `groups[i]` is
/// the fold id of sample i; negative ids mark training-only samples (used to
/// cap the number of evaluated folds without shrinking the training sets).
/// `post_gains` (empty = none) go to each fold's scaler, see
/// StandardScaler::set_post_gains. Throws std::invalid_argument on size
/// mismatches or an empty dataset.
std::vector<Fold> make_folds(std::span<const std::vector<double>> samples,
                             std::span<const int> labels, std::span<const int> groups,
                             const std::vector<double>& post_gains);

/// Post-processes the fold's trained model (scaled training data provided so
/// the hook can retrain).
using ModelTransform = std::function<SvmModel(
    const SvmModel&, std::span<const std::vector<double>>, std::span<const int>)>;

struct CvOptions {
  Kernel kernel = quadratic_kernel();
  TrainParams train;
  std::vector<double> post_gains;  ///< See StandardScaler::set_post_gains.
  ModelTransform transform;        ///< Optional.
};

struct FoldOutcome {
  int group = 0;
  ConfusionMatrix confusion;
  std::size_t num_support_vectors = 0;
  bool trained = false;  ///< False if the training split had a single class.
};

struct CvResult {
  std::vector<FoldOutcome> folds;
  FoldAverages averages;

  /// Mean SV count over successfully trained folds (drives the HW model).
  double mean_support_vectors() const;
};

/// Run leave-one-group-out CV over make_folds(): train, transform, and
/// predict with the float model per fold. Unusable folds are kept, marked
/// trained=false. Throws std::invalid_argument as make_folds does.
CvResult cross_validate(std::span<const std::vector<double>> samples,
                        std::span<const int> labels, std::span<const int> groups,
                        const CvOptions& options);

}  // namespace svt::svm
