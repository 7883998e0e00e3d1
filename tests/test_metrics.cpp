#include "svm/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace svt::svm {
namespace {

TEST(Confusion, TallyFromLabels) {
  std::vector<int> truth{1, 1, -1, -1, 1, -1};
  std::vector<int> pred{1, -1, -1, 1, 1, -1};
  const auto cm = tally(truth, pred);
  EXPECT_EQ(cm.tp, 2u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.tn, 2u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.total(), 6u);
  std::vector<int> short_pred{1};
  EXPECT_THROW(tally(truth, short_pred), std::invalid_argument);
}

TEST(Confusion, PaperEquation2) {
  ConfusionMatrix cm{.tp = 8, .tn = 90, .fp = 10, .fn = 2};
  EXPECT_DOUBLE_EQ(cm.sensitivity(), 0.8);
  EXPECT_DOUBLE_EQ(cm.specificity(), 0.9);
  EXPECT_DOUBLE_EQ(cm.geometric_mean(), std::sqrt(0.72));
}

TEST(Confusion, UndefinedMetricsAreNaN) {
  ConfusionMatrix no_pos{.tp = 0, .tn = 5, .fp = 1, .fn = 0};
  EXPECT_TRUE(std::isnan(no_pos.sensitivity()));
  EXPECT_TRUE(std::isnan(no_pos.geometric_mean()));
  EXPECT_FALSE(std::isnan(no_pos.specificity()));
  ConfusionMatrix no_neg{.tp = 3, .tn = 0, .fp = 0, .fn = 1};
  EXPECT_TRUE(std::isnan(no_neg.specificity()));
  EXPECT_TRUE(std::isnan(no_neg.geometric_mean()));
}

TEST(Confusion, Accumulation) {
  ConfusionMatrix a{.tp = 1, .tn = 2, .fp = 3, .fn = 4};
  ConfusionMatrix b{.tp = 10, .tn = 20, .fp = 30, .fn = 40};
  a += b;
  EXPECT_EQ(a.tp, 11u);
  EXPECT_EQ(a.fn, 44u);
}

TEST(FoldAverages, SkipsUndefinedFolds) {
  std::vector<ConfusionMatrix> folds = {
      {.tp = 1, .tn = 9, .fp = 1, .fn = 0},   // Se 1.0, Sp 0.9.
      {.tp = 0, .tn = 10, .fp = 0, .fn = 0},  // No positives: Se undefined.
      {.tp = 1, .tn = 8, .fp = 2, .fn = 1},   // Se 0.5, Sp 0.8.
  };
  const auto avg = average_over_folds(folds);
  EXPECT_EQ(avg.folds_with_se, 2u);
  EXPECT_EQ(avg.folds_with_sp, 3u);
  EXPECT_NEAR(avg.sensitivity, 0.75, 1e-12);
  EXPECT_NEAR(avg.specificity, (0.9 + 1.0 + 0.8) / 3.0, 1e-12);
  EXPECT_EQ(avg.folds_with_gm, 2u);
}

TEST(FoldAverages, AllUndefinedGivesZeroCounts) {
  std::vector<ConfusionMatrix> folds(3);
  const auto avg = average_over_folds(folds);
  EXPECT_EQ(avg.folds_with_gm, 0u);
  EXPECT_DOUBLE_EQ(avg.geometric_mean, 0.0);
}

// Property: GM is bounded by min(Se, Sp) and max(Se, Sp).
class GmBounds : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GmBounds, GeometricMeanBetweenSeAndSp) {
  const auto [tp, fn, tn, fp] = GetParam();
  ConfusionMatrix cm{.tp = static_cast<std::size_t>(tp), .tn = static_cast<std::size_t>(tn),
                     .fp = static_cast<std::size_t>(fp), .fn = static_cast<std::size_t>(fn)};
  const double se = cm.sensitivity();
  const double sp = cm.specificity();
  const double gm = cm.geometric_mean();
  EXPECT_GE(gm, std::min(se, sp) - 1e-12);
  EXPECT_LE(gm, std::max(se, sp) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Cases, GmBounds,
                         ::testing::Values(std::make_tuple(5, 5, 90, 10),
                                           std::make_tuple(9, 1, 50, 50),
                                           std::make_tuple(1, 9, 99, 1),
                                           std::make_tuple(10, 0, 100, 0)));

}  // namespace
}  // namespace svt::svm
