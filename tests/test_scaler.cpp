#include "svm/scaler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dsp/statistics.hpp"

namespace svt::svm {
namespace {

std::vector<std::vector<double>> toy_samples() {
  return {{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}, {4.0, 40.0}};
}

TEST(Scaler, ZScoreNormalisesColumns) {
  StandardScaler scaler;
  scaler.fit(toy_samples());
  const auto out = scaler.transform_all(toy_samples());
  std::vector<double> col0, col1;
  for (const auto& r : out) {
    col0.push_back(r[0]);
    col1.push_back(r[1]);
  }
  EXPECT_NEAR(dsp::mean(col0), 0.0, 1e-12);
  EXPECT_NEAR(dsp::stddev_population(col0), 1.0, 1e-12);
  EXPECT_NEAR(dsp::stddev_population(col1), 1.0, 1e-12);
}

TEST(Scaler, ConstantFeatureMapsToZeroInZScore) {
  StandardScaler scaler;
  std::vector<std::vector<double>> samples{{5.0, 1.0}, {5.0, 2.0}};
  scaler.fit(samples);
  const auto out = scaler.transform(samples[0]);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(Scaler, PostGainsApplyAfterNormalisation) {
  StandardScaler scaler;
  scaler.set_post_gains({2.0, 0.5});
  scaler.fit(toy_samples());
  const auto out = scaler.transform_all(toy_samples());
  std::vector<double> col0, col1;
  for (const auto& r : out) {
    col0.push_back(r[0]);
    col1.push_back(r[1]);
  }
  EXPECT_NEAR(dsp::stddev_population(col0), 2.0, 1e-12);
  EXPECT_NEAR(dsp::stddev_population(col1), 0.5, 1e-12);
}

TEST(Scaler, Validation) {
  StandardScaler scaler;
  std::vector<double> x{1.0, 2.0};
  EXPECT_THROW(scaler.transform(x), std::invalid_argument);  // Not fitted.
  std::vector<std::vector<double>> empty;
  EXPECT_THROW(scaler.fit(empty), std::invalid_argument);
  std::vector<std::vector<double>> ragged{{1.0}, {1.0, 2.0}};
  EXPECT_THROW(scaler.fit(ragged), std::invalid_argument);
  scaler.fit(toy_samples());
  std::vector<double> wrong_size{1.0};
  EXPECT_THROW(scaler.transform(wrong_size), std::invalid_argument);
  scaler.set_post_gains({1.0});  // Wrong gain count.
  EXPECT_THROW(scaler.transform(x), std::invalid_argument);
}

TEST(Scaler, SaveLoadRoundTrip) {
  StandardScaler scaler;
  scaler.fit(toy_samples());
  scaler.set_post_gains({8.0, 2.0});
  std::stringstream stream;
  scaler.save(stream);
  const auto loaded = StandardScaler::load(stream);
  EXPECT_EQ(loaded.means(), scaler.means());
  EXPECT_EQ(loaded.stds(), scaler.stds());
  EXPECT_EQ(loaded.post_gains(), scaler.post_gains());
  // Bit-exact transforms across the round trip.
  for (const auto& row : toy_samples()) EXPECT_EQ(loaded.transform(row), scaler.transform(row));
  // Serialisation is a fixed point.
  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(stream.str(), again.str());
}

TEST(Scaler, LoadRejectsCorruptInput) {
  StandardScaler scaler;
  scaler.fit(toy_samples());
  std::stringstream stream;
  scaler.save(stream);
  const std::string text = stream.str();

  std::stringstream bad_header("not-a-scaler v1\n");
  EXPECT_THROW(StandardScaler::load(bad_header), std::invalid_argument);
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(StandardScaler::load(truncated), std::invalid_argument);
  // Any mode but z-score (0) must be rejected, not silently kept: 1 was the
  // retired centre-only mode, 7 was never one.
  for (const char* mode : {"mode 1", "mode 7"}) {
    std::string corrupt = text;
    const auto mode_at = corrupt.find("mode ");
    corrupt.replace(mode_at, corrupt.find('\n', mode_at) - mode_at, mode);
    std::stringstream bad_mode(corrupt);
    EXPECT_THROW(StandardScaler::load(bad_mode), std::invalid_argument) << mode;
  }
}

TEST(Scaler, TrainTestConsistency) {
  // The scaler fitted on train applies train statistics to test data.
  StandardScaler scaler;
  scaler.fit(toy_samples());
  const std::vector<double> means{2.5, 25.0};
  const auto t = scaler.transform(means);  // Column means.
  EXPECT_NEAR(t[0], 0.0, 1e-12);
  EXPECT_NEAR(t[1], 0.0, 1e-12);
}

}  // namespace
}  // namespace svt::svm
