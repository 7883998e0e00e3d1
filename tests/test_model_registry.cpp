// ModelRegistry / ServableModel: resolve-with-fallback semantics, atomic
// hot-swap under concurrent lookups, construction validation, and the disk
// round-trip (selection + scaler + SVM + quantised engine) that lets
// deployments skip requantisation at startup.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tailoring.hpp"
#include "fixed/fixed_point.hpp"
#include "rt/model_registry.hpp"
#include "svm/kernel.hpp"
#include "support/fixtures.hpp"
#include "support/quantized_oracle.hpp"

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
  std::vector<double> row;
  for (int i = 0; i < 200; ++i) {
    const auto model = registry.resolve(1);
    if (!model || !model->quantized().has_value()) ok = false;
    model->prepare_row(raw[i % raw.size()], row);
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
  const auto rows = prepared_rows(original, raw);
  ASSERT_EQ(prepared_rows(loaded, raw), rows);
  // Bit-exact across the round trip (same integer accumulator, same scale),
  // and the served batch kernel matches the per-window oracle.
  const auto want = served_values(original, raw);
  EXPECT_EQ(served_values(loaded, raw), want);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(want[i], core::dequantized_decision(*loaded.quantized(), rows[i])) << i;
    EXPECT_EQ(want[i] >= 0.0 ? 1 : -1, core::classify(*loaded.quantized(), rows[i])) << i;
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
  const auto rows = prepared_rows(original, raw);
  std::vector<double> want(rows.size()), got(rows.size());
  rt::KernelScratch scratch;
  original.packed()->decision_values(rows, want, scratch);
  loaded.packed()->decision_values(rows, got, scratch);
  EXPECT_EQ(got, want);
}

/// `text` with the value after the `occurrence`-th (0-based) line that
/// starts with `tag` replaced by `value`.
std::string edit_field(const std::string& text, const std::string& tag, int occurrence,
                       const std::string& value) {
  std::size_t at = 0;
  for (int seen = -1; seen < occurrence; ++seen) {
    at = text.find("\n" + tag + " ", at + 1);
    EXPECT_NE(at, std::string::npos) << tag;
    if (at == std::string::npos) return text;
  }
  const std::size_t begin = at + tag.size() + 2;
  const std::size_t end = text.find_first_of(" \n", begin);
  return text.substr(0, begin) + value + text.substr(end);
}

/// `text` with token `column` (0-based) of the `row`-th line after the
/// first line starting with `tag` replaced by `value`; row 0 is that line
/// itself, whose column 0 is the tag.
std::string edit_token(const std::string& text, const std::string& tag, std::size_t row,
                       std::size_t column, const std::string& value) {
  std::size_t at = text.find("\n" + tag + " ");
  EXPECT_NE(at, std::string::npos) << tag;
  if (at == std::string::npos) return text;
  for (std::size_t line = 0; line < row; ++line) at = text.find('\n', at + 1);
  std::size_t begin = at + 1;
  for (std::size_t c = 0; c < column; ++c) begin = text.find(' ', begin) + 1;
  const std::size_t end = text.find_first_of(" \n", begin);
  return text.substr(0, begin) + value + text.substr(end);
}

/// `text` with token `column` of SV row `row` of its quantised engine's
/// table (column 0 is the SV's alpha_y, then one integer per feature)
/// replaced by `value`.
std::string edit_sv_table(const std::string& text, std::size_t row, std::size_t column,
                          const std::string& value) {
  return edit_token(text, "qbias", row + 1, column, value);
}

TEST(ServableModel, LoadRejectsCorruptInput) {
  const auto original = rt::ServableModel::from_detector(detector());
  std::stringstream stream;
  original.save(stream);
  const std::string text = stream.str();

  std::vector<std::pair<std::string, std::string>> inputs{
      {"bad header", "not-a-model v1\n"},
      {"truncated", text.substr(0, text.size() / 2)},
  };
  // Count fields claiming more values than the file holds, far past memory
  // (10^15) or negative (read into std::size_t as 2^64 - 1). Each must fail
  // at the first missing value, not size a vector from the count.
  const std::pair<const char*, int> counts[] = {
      {"selected", 0}, {"nfeat", 0} /* the scaler's */, {"nsv", 0} /* the SVM's */,
      {"nsv", 1} /* the quantised engine's */};
  for (const auto& [tag, occurrence] : counts)
    for (const char* value : {"1000000000000000", "-1"})
      inputs.emplace_back(std::string(tag) + "#" + std::to_string(occurrence) + " = " + value,
                          edit_field(text, tag, occurrence, value));
  // Integers build() could never write: it saturates each SV integer to
  // feature_bits, each alpha_y to alpha_bits, qone to the MAC1 accumulator
  // and qbias to min(126, the MAC2 accumulator). One past each bound, and
  // an SV integer of 2^62, whose product overflowed the int64 kernel.
  const core::QuantizedModel& quantized = *original.quantized();
  const auto max_of = [](int bits) { return (__int128{1} << (bits - 1)) - 1; };
  const auto text_of = [](__int128 v) { return fixed::to_string_int128(v); };
  const int feature_bits = quantized.config().feature_bits;
  const int alpha_bits = quantized.config().alpha_bits;
  const int mac1_bits = quantized.pipeline().mac1_accumulator_bits();
  const int bias_bits = std::min(126, quantized.pipeline().mac2_accumulator_bits());
  const std::pair<std::string, std::string> at_bound[] = {
      {"SV integer at max", edit_sv_table(text, 0, 1, text_of(max_of(feature_bits)))},
      {"SV integer at min", edit_sv_table(text, 2, 3, text_of(-max_of(feature_bits) - 1))},
      {"alpha_y at max", edit_sv_table(text, 1, 0, text_of(max_of(alpha_bits)))},
      {"qone at max", edit_field(text, "qone", 0, text_of(max_of(mac1_bits)))},
      {"qbias at min", edit_field(text, "qbias", 0, text_of(-max_of(bias_bits) - 1))}};
  inputs.emplace_back("SV integer 2^62", edit_sv_table(text, 0, 1, "4611686018427387904"));
  inputs.emplace_back("SV integer past max",
                      edit_sv_table(text, 0, 1, text_of(max_of(feature_bits) + 1)));
  inputs.emplace_back("SV integer past min",
                      edit_sv_table(text, 2, 3, text_of(-max_of(feature_bits) - 2)));
  inputs.emplace_back("alpha_y past max",
                      edit_sv_table(text, 1, 0, text_of(max_of(alpha_bits) + 1)));
  inputs.emplace_back("qone past max", edit_field(text, "qone", 0, text_of(max_of(mac1_bits) + 1)));
  inputs.emplace_back("qbias past min",
                      edit_field(text, "qbias", 0, text_of(-max_of(bias_bits) - 2)));
  // A truncation the kernel's int64 shifts cannot take.
  inputs.emplace_back("dot truncation 64", edit_token(text, "bits", 0, 3, "64"));
  inputs.emplace_back("square truncation 80", edit_token(text, "bits", 0, 4, "80"));
  for (const auto& [what, input] : inputs) {
    std::stringstream is(input);
    EXPECT_THROW(rt::ServableModel::load(is), std::invalid_argument) << what;
  }
  for (const auto& [what, input] : at_bound) {
    ASSERT_NE(input, text) << what;
    std::stringstream is(input);
    EXPECT_NO_THROW(rt::ServableModel::load(is)) << what;
  }
}

TEST(ServableModel, PrepareRowRejectsShortVectors) {
  std::vector<double> row;
  EXPECT_THROW(servable().prepare_row(std::vector<double>(5, 0.0), row), std::invalid_argument);
}

TEST(ServableModel, RejectsNonQuadraticKernels) {
  const auto& d = test::detector();
  for (const svm::Kernel& kernel :
       {svm::linear_kernel(), svm::cubic_kernel(), svm::gaussian_kernel(0.3)}) {
    auto model = d.model();
    model.kernel = kernel;
    // With or without a quantised engine: nothing serves another kernel.
    EXPECT_THROW(rt::ServableModel(d.selected_features(), d.scaler(), model, d.quantized()),
                 std::invalid_argument)
        << kernel.name();
    EXPECT_THROW(rt::ServableModel(d.selected_features(), d.scaler(), model, std::nullopt),
                 std::invalid_argument)
        << kernel.name();
  }

  // load() builds through the same constructor: a saved model whose kernel
  // line names another kernel is rejected.
  std::stringstream stream;
  rt::ServableModel::from_detector(float_detector()).save(stream);
  const std::string quadratic = "\nkernel 1 2 ";
  std::string text = stream.str();
  const std::size_t at = text.find(quadratic);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, quadratic.size(), "\nkernel 1 3 ");  // Cubic.
  std::stringstream cubic(text);
  EXPECT_THROW(rt::ServableModel::load(cubic), std::invalid_argument);
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
