// ModelRegistry / ServableModel: resolve-with-fallback semantics, atomic
// hot-swap under concurrent lookups, construction validation, and the disk
// round-trip (selection + scaler + SVM + quantised engine) that lets
// deployments skip requantisation at startup.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "core/tailoring.hpp"
#include "rt/model_registry.hpp"
#include "support/fixtures.hpp"

namespace svt {
namespace {

using namespace test;

/// Random raw (full-length) feature vectors shaped like extractor output.
std::vector<std::vector<double>> random_raw_vectors(std::size_t count, std::size_t nfeat,
                                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<std::vector<double>> raw(count, std::vector<double>(nfeat));
  for (auto& row : raw)
    for (auto& v : row) v = gauss(rng);
  return raw;
}

std::size_t raw_feature_count(const core::TailoredDetector& detector) {
  std::size_t max_index = 0;
  for (std::size_t j : detector.selected_features()) max_index = std::max(max_index, j);
  return max_index + 1;
}

TEST(ModelRegistry, ResolveFallsBackToDefault) {
  rt::ModelRegistry registry(rt::ServableModel::from_detector(detector()));
  const auto fallback = registry.resolve(42);
  ASSERT_TRUE(fallback);
  EXPECT_TRUE(fallback->quantized().has_value());

  // A dedicated entry shadows the default; erasing it restores the fallback.
  auto dedicated = std::make_shared<const rt::ServableModel>(
      rt::ServableModel::from_detector(detector()));
  registry.install(42, dedicated);
  EXPECT_EQ(registry.resolve(42), dedicated);
  EXPECT_NE(registry.resolve(7), dedicated);
  EXPECT_EQ(registry.num_patient_models(), 1u);
  registry.erase(42);
  EXPECT_EQ(registry.resolve(42), fallback);
  EXPECT_EQ(registry.num_patient_models(), 0u);
}

TEST(ModelRegistry, EmptyRegistryResolvesNull) {
  rt::ModelRegistry registry;
  EXPECT_EQ(registry.resolve(1), nullptr);
  EXPECT_THROW(registry.install(1, nullptr), std::invalid_argument);
}

TEST(ModelRegistry, HotSwapIsAtomicUnderConcurrentResolves) {
  // Swap two models for one patient from a writer thread while reader
  // threads continuously resolve and use them. TSan (CI) checks the data
  // races; here we assert readers only ever observe fully formed models.
  rt::ModelRegistry registry(rt::ServableModel::from_detector(detector()));
  auto a = std::make_shared<const rt::ServableModel>(rt::ServableModel::from_detector(detector()));
  const auto raw = random_raw_vectors(4, raw_feature_count(detector()), 5);

  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      registry.install(1, a);
      registry.erase(1);
    }
  });
  bool ok = true;
  for (int i = 0; i < 200; ++i) {
    const auto model = registry.resolve(1);
    if (!model || !model->quantized().has_value()) ok = false;
    const auto row = model->prepare_row(raw[i % raw.size()]);
    if (row.size() != model->model().num_features()) ok = false;
  }
  writer.join();
  EXPECT_TRUE(ok);
}

TEST(ServableModel, RoundTripsQuantizedBitExact) {
  const auto original = rt::ServableModel::from_detector(detector());
  std::stringstream stream;
  original.save(stream);
  const auto loaded = rt::ServableModel::load(stream);

  EXPECT_EQ(loaded.selected_features(), original.selected_features());
  ASSERT_TRUE(loaded.quantized().has_value());
  EXPECT_FALSE(loaded.packed().has_value());  // Quantised engine wins, as before.

  const auto raw = random_raw_vectors(64, raw_feature_count(detector()), 11);
  for (const auto& x : raw) {
    const auto row_a = original.prepare_row(x);
    const auto row_b = loaded.prepare_row(x);
    ASSERT_EQ(row_a, row_b);
    // Bit-exact across the round trip: same integer accumulator, same scale.
    EXPECT_EQ(original.quantized()->dequantized_decision(row_a),
              loaded.quantized()->dequantized_decision(row_b));
    EXPECT_EQ(original.quantized()->classify(row_a), loaded.quantized()->classify(row_b));
  }

  // Serialisation is a fixed point: saving the loaded model reproduces the
  // bytes exactly.
  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(stream.str(), again.str());
}

TEST(ServableModel, RoundTripsFloatWithPackedFastPath) {
  const auto original = rt::ServableModel::from_detector(float_detector());
  ASSERT_FALSE(original.quantized().has_value());
  ASSERT_TRUE(original.packed().has_value());

  std::stringstream stream;
  original.save(stream);
  const auto loaded = rt::ServableModel::load(stream);
  ASSERT_TRUE(loaded.packed().has_value());  // Rebuilt from the loaded SVM.

  const auto raw = random_raw_vectors(32, raw_feature_count(float_detector()), 13);
  for (const auto& x : raw) {
    const auto row = original.prepare_row(x);
    EXPECT_EQ(original.packed()->decision_value(row), loaded.packed()->decision_value(row));
  }
}

TEST(ServableModel, LoadRejectsCorruptInput) {
  const auto original = rt::ServableModel::from_detector(detector());
  std::stringstream stream;
  original.save(stream);
  std::string text = stream.str();

  {
    std::stringstream bad("not-a-model v1\n");
    EXPECT_THROW(rt::ServableModel::load(bad), std::invalid_argument);
  }
  {
    std::stringstream truncated(text.substr(0, text.size() / 2));
    EXPECT_THROW(rt::ServableModel::load(truncated), std::invalid_argument);
  }
}

TEST(ServableModel, RejectsMismatchedParts) {
  const auto& detector = test::detector();
  svm::StandardScaler wrong_scaler;  // Not fitted.
  EXPECT_THROW(rt::ServableModel(detector.selected_features(), wrong_scaler, detector.model(),
                                 detector.quantized()),
               std::invalid_argument);
  auto too_few = detector.selected_features();
  too_few.pop_back();
  EXPECT_THROW(
      rt::ServableModel(too_few, detector.scaler(), detector.model(), detector.quantized()),
      std::invalid_argument);
}

}  // namespace
}  // namespace svt
