#include "features/extractor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <set>

#include "features/ar_features.hpp"
#include "features/hrv_features.hpp"
#include "features/lorentz_features.hpp"
#include "dsp/ar_model.hpp"
#include "features/psd_features.hpp"

namespace svt::features {
namespace {

ecg::RrSeries constant_rr(double interval_s, std::size_t beats) {
  ecg::RrSeries rr;
  for (std::size_t i = 0; i < beats; ++i) {
    rr.beat_times_s.push_back(static_cast<double>(i + 1) * interval_s);
    rr.rr_s.push_back(interval_s);
  }
  return rr;
}

/// Each feature family through its one entry point, with a fresh scratch.
std::vector<double> hrv(const ecg::RrSeries& rr) {
  FeatureScratch scratch;
  std::vector<double> f(kNumHrvFeatures);
  compute_hrv_features(rr.rr_s, scratch, f);
  return f;
}

std::vector<double> lorentz(const ecg::RrSeries& rr) {
  FeatureScratch scratch;
  std::vector<double> f(kNumLorentzFeatures);
  compute_lorentz_features(rr.rr_s, scratch, f);
  return f;
}

std::vector<double> ar(const ecg::RespirationSeries& edr) {
  FeatureScratch scratch;
  std::vector<double> f(kNumArFeatures);
  compute_ar_features(edr.values, scratch, f);
  return f;
}

std::vector<double> psd(const ecg::RespirationSeries& edr) {
  FeatureScratch scratch;
  std::vector<double> f(kNumPsdFeatures);
  compute_psd_features(edr.values, edr.fs_hz, scratch, f);
  return f;
}

TEST(Catalog, FiftyThreeFeaturesInPaperOrder) {
  const auto& catalog = feature_catalog();
  ASSERT_EQ(catalog.size(), kNumFeatures);
  ASSERT_EQ(kNumFeatures, 53u);
  // Paper grouping: 1-8 HRV, 9-15 Lorentz, 16-24 AR, 25-53 PSD (1-based).
  EXPECT_EQ(catalog[0].category, FeatureCategory::kHrv);
  EXPECT_EQ(catalog[7].category, FeatureCategory::kHrv);
  EXPECT_EQ(catalog[8].category, FeatureCategory::kLorentz);
  EXPECT_EQ(catalog[14].category, FeatureCategory::kLorentz);
  EXPECT_EQ(catalog[15].category, FeatureCategory::kAr);
  EXPECT_EQ(catalog[23].category, FeatureCategory::kAr);
  EXPECT_EQ(catalog[24].category, FeatureCategory::kPsd);
  EXPECT_EQ(catalog[52].category, FeatureCategory::kPsd);
  // Names are unique.
  std::set<std::string> names;
  for (const auto& f : catalog) names.insert(f.name);
  EXPECT_EQ(names.size(), kNumFeatures);
  EXPECT_THROW(category_of(53), std::out_of_range);
}

TEST(Catalog, CategoryGainsArePowersOfTwoAndHeterogeneous) {
  const double hrv = category_gain(FeatureCategory::kHrv);
  const double ar = category_gain(FeatureCategory::kAr);
  EXPECT_GT(hrv, ar);
  for (double g : {category_gain(FeatureCategory::kHrv), category_gain(FeatureCategory::kLorentz),
                   category_gain(FeatureCategory::kPsd), category_gain(FeatureCategory::kAr)}) {
    EXPECT_DOUBLE_EQ(std::exp2(std::round(std::log2(g))), g);
  }
  const auto gains = category_gains({0, 8, 15, 24});
  EXPECT_EQ(gains, (std::vector<double>{hrv, category_gain(FeatureCategory::kLorentz),
                                        category_gain(FeatureCategory::kAr),
                                        category_gain(FeatureCategory::kPsd)}));
}

TEST(HrvFeatures, ConstantRhythm) {
  const auto rr = constant_rr(60.0 / 75.0, 100);
  const auto f = hrv(rr);
  EXPECT_NEAR(f[0], 75.0, 1e-9);              // mean HR.
  EXPECT_NEAR(f[1], 60.0 / 75.0 * 1e3, 1e-6); // mean NN [ms].
  EXPECT_NEAR(f[2], 0.0, 1e-9);               // SDNN.
  EXPECT_NEAR(f[3], 0.0, 1e-9);               // RMSSD.
  EXPECT_NEAR(f[4], 0.0, 1e-9);               // pNN50.
}

TEST(HrvFeatures, TooFewBeatsYieldZeros) {
  const auto rr = constant_rr(0.8, 2);
  const auto f = hrv(rr);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(HrvFeatures, Pnn50CountsBigSteps) {
  ecg::RrSeries rr;
  double t = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double interval = i % 2 == 0 ? 0.80 : 0.90;  // 100 ms alternation.
    t += interval;
    rr.beat_times_s.push_back(t);
    rr.rr_s.push_back(interval);
  }
  const auto f = hrv(rr);
  EXPECT_NEAR(f[4], 100.0, 1e-9);  // Every successive diff is 100 ms > 50 ms.
  EXPECT_GT(f[3], 90.0);           // RMSSD ~ 100 ms.
}

TEST(LorentzFeatures, AlternatingRhythmHasLargeSd1) {
  ecg::RrSeries alternating;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double interval = i % 2 == 0 ? 0.75 : 0.85;
    t += interval;
    alternating.beat_times_s.push_back(t);
    alternating.rr_s.push_back(interval);
  }
  const auto f = lorentz(alternating);
  // Pure alternation: all variability is beat-to-beat -> SD1 >> SD2.
  EXPECT_GT(f[0], f[1]);
  EXPECT_GT(f[2], 1.0);  // SD1/SD2.
}

TEST(LorentzFeatures, SlowRampHasLargeSd2) {
  ecg::RrSeries ramp;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double interval = 0.7 + 0.001 * i;
    t += interval;
    ramp.beat_times_s.push_back(t);
    ramp.rr_s.push_back(interval);
  }
  const auto f = lorentz(ramp);
  EXPECT_GT(f[1], 5.0 * f[0]);  // SD2 dominates.
  EXPECT_GT(f[6], 900.0);       // Centroid distance ~ mean RR * sqrt(2) in ms.
}

TEST(ArFeatures, SinusoidalEdrYieldsResonantModel) {
  ecg::RespirationSeries edr;
  edr.fs_hz = 4.0;
  edr.values.resize(720);
  for (std::size_t i = 0; i < edr.values.size(); ++i) {
    edr.values[i] =
        std::sin(2.0 * std::numbers::pi * 0.25 * static_cast<double>(i) / edr.fs_hz);
  }
  const auto f = ar(edr);
  // An AR(9) fit of a sinusoid must place its spectral peak at the tone.
  svt::dsp::ArModel model{std::vector<double>(f.begin(), f.end()), 1.0};
  std::vector<double> freqs;
  for (double fr = 0.05; fr <= 1.0; fr += 0.01) freqs.push_back(fr);
  const auto psd = model.spectrum(freqs, edr.fs_hz);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < psd.size(); ++i) {
    if (psd[i] > psd[peak]) peak = i;
  }
  EXPECT_NEAR(freqs[peak], 0.25, 0.05);
}

TEST(ArFeatures, DegenerateInputsYieldZeros) {
  ecg::RespirationSeries flat;
  flat.fs_hz = 4.0;
  flat.values.assign(100, 1.0);
  for (double v : ar(flat)) EXPECT_DOUBLE_EQ(v, 0.0);
  ecg::RespirationSeries tiny;
  tiny.fs_hz = 4.0;
  tiny.values.assign(5, 0.0);
  for (double v : ar(tiny)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PsdFeatures, RespiratoryPeakDetected) {
  ecg::RespirationSeries edr;
  edr.fs_hz = 4.0;
  edr.values.resize(720);
  for (std::size_t i = 0; i < edr.values.size(); ++i) {
    edr.values[i] =
        std::sin(2.0 * std::numbers::pi * 0.30 * static_cast<double>(i) / edr.fs_hz);
  }
  const auto f = psd(edr);
  EXPECT_NEAR(f[27], 0.30, 0.05);  // Peak frequency feature.
  // The band containing 0.30 Hz dominates its neighbours 2 bands away.
  const auto band = static_cast<std::size_t>(0.30 / (2.0 / 25.0));
  EXPECT_GT(f[band], f[band + 3]);
}

TEST(PsdFeatures, ShortSeriesYieldsZeros) {
  ecg::RespirationSeries edr;
  edr.fs_hz = 4.0;
  edr.values.assign(10, 0.5);
  for (double v : psd(edr)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Extractor, FullVectorDimensions) {
  ecg::DatasetParams params;
  params.windows_per_session = 3;
  const auto ds = ecg::generate_dataset(params);
  const auto f = extract_features(ds.sessions.front().windows.front());
  EXPECT_EQ(f.size(), kNumFeatures);
  const auto matrix = extract_feature_matrix(ds);
  EXPECT_EQ(matrix.size(), ds.num_windows());
  EXPECT_EQ(matrix.num_features(), kNumFeatures);
  EXPECT_EQ(matrix.labels.size(), matrix.size());
  EXPECT_EQ(matrix.session_index.size(), matrix.size());
}

TEST(Extractor, ScratchPathBitIdenticalToAllocatingPath) {
  // One reused FeatureScratch across many (deliberately different) windows
  // must reproduce the allocating path exactly — stale buffer contents from
  // a previous window must never leak into the next.
  FeatureScratch scratch;
  std::array<double, kNumFeatures> out{};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> jitter(0.0, 0.05);
    ecg::WindowRecord window;
    ecg::RrSeries& rr = window.rr;
    double t = 0.0;
    const std::size_t nbeats = 20 + 30 * static_cast<std::size_t>(seed % 3);
    for (std::size_t i = 0; i < nbeats; ++i) {
      const double interval = 0.8 + jitter(rng);
      t += interval;
      rr.beat_times_s.push_back(t);
      rr.rr_s.push_back(interval);
    }
    ecg::RespirationSeries& edr = window.edr;
    edr.fs_hz = 4.0;
    const std::size_t nedr = 64 + 96 * static_cast<std::size_t>(seed % 2);
    for (std::size_t i = 0; i < nedr; ++i)
      edr.values.push_back(std::sin(0.5 * static_cast<double>(i)) + jitter(rng));

    const auto want = extract_features(window);
    extract_features(rr, edr, scratch, out);
    ASSERT_EQ(want.size(), out.size());
    for (std::size_t j = 0; j < want.size(); ++j)
      EXPECT_EQ(out[j], want[j]) << "feature " << j << " seed " << seed;
  }
}

TEST(FeatureMatrix, SelectFeaturesAndRows) {
  FeatureMatrix m;
  m.samples = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  m.labels = {1, -1};
  m.session_index = {0, 1};
  m.patient_id = {0, 0};
  const auto cols = m.select_features({2, 0});
  EXPECT_EQ(cols.samples[0], (std::vector<double>{3.0, 1.0}));
  EXPECT_EQ(cols.samples[1], (std::vector<double>{6.0, 4.0}));
  EXPECT_THROW(m.select_features({5}), std::out_of_range);
  const auto rows = m.select_rows({1});
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.labels[0], -1);
  EXPECT_THROW(m.select_rows({7}), std::out_of_range);
}

}  // namespace
}  // namespace svt::features
