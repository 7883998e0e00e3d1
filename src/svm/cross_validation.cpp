#include "svm/cross_validation.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace svt::svm {

double CvResult::mean_support_vectors() const {
  double acc = 0.0;
  std::size_t count = 0;
  for (const auto& f : folds) {
    if (f.trained) {
      acc += static_cast<double>(f.num_support_vectors);
      ++count;
    }
  }
  return count > 0 ? acc / static_cast<double>(count) : 0.0;
}

std::vector<Fold> make_folds(std::span<const std::vector<double>> samples,
                             std::span<const int> labels, std::span<const int> groups,
                             const std::vector<double>& post_gains) {
  const std::size_t n = samples.size();
  if (labels.size() != n || groups.size() != n)
    throw std::invalid_argument("make_folds: size mismatch");
  if (n == 0) throw std::invalid_argument("make_folds: empty dataset");

  std::set<int> ids;
  for (int g : groups) {
    if (g >= 0) ids.insert(g);
  }
  std::vector<Fold> folds;
  folds.reserve(ids.size());
  for (int g : ids) {
    Fold fold;
    fold.group = g;
    for (std::size_t i = 0; i < n; ++i) {
      if (groups[i] == g) {
        fold.test_x.push_back(samples[i]);
        fold.test_y.push_back(labels[i]);
      } else {
        fold.train_x.push_back(samples[i]);
        fold.train_y.push_back(labels[i]);
      }
    }
    const auto& y = fold.train_y;
    fold.usable = std::find(y.begin(), y.end(), +1) != y.end() &&
                  std::find(y.begin(), y.end(), -1) != y.end();
    if (fold.usable) {
      StandardScaler scaler;
      scaler.set_post_gains(post_gains);
      scaler.fit(fold.train_x);
      fold.train_x = scaler.transform_all(fold.train_x);
      fold.test_x = scaler.transform_all(fold.test_x);
    }
    folds.push_back(std::move(fold));
  }
  return folds;
}

CvResult cross_validate(std::span<const std::vector<double>> samples,
                        std::span<const int> labels, std::span<const int> groups,
                        const CvOptions& options) {
  CvResult result;
  std::vector<ConfusionMatrix> confusions;
  for (const Fold& fold : make_folds(samples, labels, groups, options.post_gains)) {
    FoldOutcome outcome;
    outcome.group = fold.group;
    if (fold.usable) {
      SvmModel model = train_svm(fold.train_x, fold.train_y, options.kernel, options.train);
      if (options.transform) model = options.transform(model, fold.train_x, fold.train_y);
      std::vector<int> predicted(fold.test_x.size());
      for (std::size_t i = 0; i < fold.test_x.size(); ++i)
        predicted[i] = model.predict(fold.test_x[i]);
      outcome.trained = true;
      outcome.num_support_vectors = model.num_support_vectors();
      outcome.confusion = tally(fold.test_y, predicted);
      confusions.push_back(outcome.confusion);
    }
    result.folds.push_back(outcome);
  }
  result.averages = average_over_folds(confusions);
  return result;
}

}  // namespace svt::svm
