#include "svm/cross_validation.hpp"

#include <gtest/gtest.h>

#include <random>

namespace svt::svm {
namespace {

/// Grouped toy data: each group is a shifted pair of blobs; the task is easy
/// so CV should be near-perfect.
struct GroupedData {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  std::vector<int> groups;
};

GroupedData make_grouped(unsigned seed, int num_groups = 4, int per_class = 30) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, 0.4);
  GroupedData d;
  for (int g = 0; g < num_groups; ++g) {
    for (int i = 0; i < per_class; ++i) {
      d.x.push_back({gauss(rng) + 2.0, gauss(rng)});
      d.y.push_back(+1);
      d.groups.push_back(g);
      d.x.push_back({gauss(rng) - 2.0, gauss(rng)});
      d.y.push_back(-1);
      d.groups.push_back(g);
    }
  }
  return d;
}

TEST(CrossValidation, OneFoldPerGroup) {
  const auto d = make_grouped(1);
  CvOptions options;
  options.kernel = linear_kernel();
  const auto result = cross_validate(d.x, d.y, d.groups, options);
  EXPECT_EQ(result.folds.size(), 4u);
  for (const auto& f : result.folds) EXPECT_TRUE(f.trained);
  EXPECT_GT(result.averages.geometric_mean, 0.95);
  EXPECT_GT(result.mean_support_vectors(), 0.0);
}

TEST(CrossValidation, NegativeGroupsAreTrainingOnly) {
  auto d = make_grouped(2);
  for (auto& g : d.groups) {
    if (g >= 2) g = -1;
  }
  CvOptions options;
  options.kernel = linear_kernel();
  const auto result = cross_validate(d.x, d.y, d.groups, options);
  EXPECT_EQ(result.folds.size(), 2u);
}

TEST(CrossValidation, TransformHookRuns) {
  const auto d = make_grouped(3);
  CvOptions options;
  options.kernel = linear_kernel();
  int calls = 0;
  options.transform = [&calls](const SvmModel& m, std::span<const std::vector<double>>,
                               std::span<const int>) {
    ++calls;
    return m;
  };
  cross_validate(d.x, d.y, d.groups, options);
  EXPECT_EQ(calls, 4);
}

TEST(CrossValidation, SingleClassTrainingFoldIsSkipped) {
  // Two groups; group 0 holds ALL positive samples, so the fold testing
  // group 0 trains on negatives only and must be marked untrained.
  GroupedData d;
  std::mt19937_64 rng(5);
  std::normal_distribution<double> gauss(0.0, 0.3);
  for (int i = 0; i < 20; ++i) {
    d.x.push_back({gauss(rng) + 1.0});
    d.y.push_back(+1);
    d.groups.push_back(0);
    d.x.push_back({gauss(rng) - 1.0});
    d.y.push_back(-1);
    d.groups.push_back(i % 2);
  }
  CvOptions options;
  options.kernel = linear_kernel();
  const auto result = cross_validate(d.x, d.y, d.groups, options);
  bool fold0_untrained = false;
  for (const auto& f : result.folds) {
    if (f.group == 0 && !f.trained) fold0_untrained = true;
  }
  EXPECT_TRUE(fold0_untrained);
}

TEST(CrossValidation, Validation) {
  CvOptions options;
  std::vector<std::vector<double>> x{{1.0}};
  std::vector<int> y{1};
  std::vector<int> g{0, 1};
  EXPECT_THROW(cross_validate(x, y, g, options), std::invalid_argument);
  std::vector<std::vector<double>> empty;
  std::vector<int> none;
  EXPECT_THROW(cross_validate(empty, none, none, options), std::invalid_argument);
}

}  // namespace
}  // namespace svt::svm
