#include "ecg/rr_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dsp/statistics.hpp"
#include "ecg/patient.hpp"

namespace svt::ecg {
namespace {

PatientProfile tachy_patient() {
  PatientProfile p = make_default_cohort()[0];
  return p;
}

PatientProfile brady_patient() {
  auto cohort = make_default_cohort();
  for (const auto& p : cohort) {
    if (p.ictal_response == IctalResponse::kBradycardia) return p;
  }
  ADD_FAILURE() << "cohort has no bradycardic patient";
  return cohort[0];
}

TEST(Cohort, SevenPatientsWithBothResponses) {
  const auto cohort = make_default_cohort();
  ASSERT_EQ(cohort.size(), 7u);
  int tachy = 0, brady = 0;
  for (const auto& p : cohort)
    (p.ictal_response == IctalResponse::kTachycardia ? tachy : brady) += 1;
  EXPECT_GE(tachy, 3);
  EXPECT_GE(brady, 2);  // The bimodality that defeats the linear kernel.
}

TEST(IctalIntensity, TimelineShape) {
  const auto p = tachy_patient();
  std::vector<SeizureEvent> sz{{300.0, 60.0, 1.0}};
  EXPECT_DOUBLE_EQ(ictal_intensity(p, sz, 0.0), 0.0);
  EXPECT_NEAR(ictal_intensity(p, sz, 300.0 - p.preictal_ramp_s / 2.0), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(ictal_intensity(p, sz, 330.0), 1.0);
  const double after = ictal_intensity(p, sz, 360.0 + p.postictal_tau_s);
  EXPECT_NEAR(after, std::exp(-1.0), 1e-9);
}

TEST(IctalIntensity, ScalesWithSeizureIntensity) {
  const auto p = tachy_patient();
  std::vector<SeizureEvent> weak{{300.0, 60.0, 0.6}};
  EXPECT_DOUBLE_EQ(ictal_intensity(p, weak, 330.0), 0.6);
}

TEST(ArousalIntensity, RampAndDecay) {
  std::vector<ArousalEvent> ar{{100.0, 50.0, 1.0}};
  EXPECT_DOUBLE_EQ(arousal_intensity(ar, 50.0), 0.0);
  EXPECT_NEAR(arousal_intensity(ar, 105.0), 0.5, 1e-9);  // 10 s ramp.
  EXPECT_DOUBLE_EQ(arousal_intensity(ar, 140.0), 1.0);
  EXPECT_LT(arousal_intensity(ar, 200.0), 0.25);
}

TEST(ArtifactIntensity, BoxProfile) {
  std::vector<ArtifactEvent> art{{10.0, 20.0, 0.7}};
  EXPECT_DOUBLE_EQ(artifact_intensity(art, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(artifact_intensity(art, 15.0), 0.7);
  EXPECT_DOUBLE_EQ(artifact_intensity(art, 31.0), 0.0);
}

TEST(RrGeneration, BaselineHeartRateMatchesProfile) {
  auto p = tachy_patient();
  p.hr_drift_sigma_bpm = 0.5;
  SessionSignalParams params;
  params.duration_s = 600.0;
  std::mt19937_64 rng(1);
  const auto rr = generate_rr_series(p, SessionEvents{}, params, rng);
  ASSERT_GT(rr.size(), 400u);
  const double mean_hr = 60.0 / dsp::mean(rr.rr_s);
  EXPECT_NEAR(mean_hr, p.baseline_hr_bpm, 5.0);
  EXPECT_NEAR(rr.duration_s(), 600.0, 3.0);
}

TEST(RrGeneration, DeterministicGivenSeed) {
  const auto p = tachy_patient();
  SessionSignalParams params;
  params.duration_s = 120.0;
  std::mt19937_64 rng_a(7), rng_b(7);
  const auto a = generate_rr_series(p, SessionEvents{}, params, rng_a);
  const auto b = generate_rr_series(p, SessionEvents{}, params, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a.rr_s[i], b.rr_s[i]);
}

TEST(RrGeneration, TachySeizureRaisesHeartRate) {
  auto p = tachy_patient();
  p.hr_drift_sigma_bpm = 0.3;
  SessionSignalParams params;
  params.duration_s = 900.0;
  SessionEvents events;
  events.seizures.push_back({400.0, 120.0, 1.0});
  std::mt19937_64 rng(3);
  const auto rr = generate_rr_series(p, events, params, rng);
  const auto ictal = slice_rr(rr, 420.0, 500.0);
  const auto inter = slice_rr(rr, 60.0, 300.0);
  ASSERT_GT(ictal.size(), 20u);
  const double hr_ictal = 60.0 / dsp::mean(ictal.rr_s);
  const double hr_inter = 60.0 / dsp::mean(inter.rr_s);
  EXPECT_GT(hr_ictal, hr_inter + 0.6 * p.ictal_hr_delta_bpm);
}

TEST(RrGeneration, BradySeizureLowersHeartRate) {
  auto p = brady_patient();
  p.hr_drift_sigma_bpm = 0.3;
  SessionSignalParams params;
  params.duration_s = 900.0;
  SessionEvents events;
  events.seizures.push_back({400.0, 120.0, 1.0});
  std::mt19937_64 rng(3);
  const auto rr = generate_rr_series(p, events, params, rng);
  const double hr_ictal = 60.0 / dsp::mean(slice_rr(rr, 420.0, 500.0).rr_s);
  const double hr_inter = 60.0 / dsp::mean(slice_rr(rr, 60.0, 300.0).rr_s);
  EXPECT_LT(hr_ictal, hr_inter - 0.5 * p.ictal_hr_delta_bpm);
}

TEST(RrGeneration, ArtifactsInflateDispersion) {
  auto p = tachy_patient();
  SessionSignalParams params;
  params.duration_s = 600.0;
  SessionEvents clean;
  SessionEvents noisy;
  noisy.artifacts.push_back({100.0, 400.0, 1.0});
  std::mt19937_64 rng_a(5), rng_b(5);
  const auto rr_clean = generate_rr_series(p, clean, params, rng_a);
  const auto rr_noisy = generate_rr_series(p, noisy, params, rng_b);
  // RMSSD: the RMS of successive differences over the artifact span.
  const auto rmssd = [](const RrSeries& rr) {
    std::vector<double> d;
    dsp::successive_differences_into(slice_rr(rr, 120.0, 480.0).rr_s, d);
    return dsp::rms(d);
  };
  EXPECT_GT(rmssd(rr_noisy), 2.0 * rmssd(rr_clean));
}

TEST(Respiration, LengthAndRate) {
  const auto p = tachy_patient();
  SessionSignalParams params;
  params.duration_s = 300.0;
  params.respiration_fs_hz = 4.0;
  std::mt19937_64 rng(9);
  const auto resp = generate_respiration(p, SessionEvents{}, params, rng);
  EXPECT_EQ(resp.values.size(), 1200u);
  EXPECT_NEAR(resp.duration_s(), 300.0, 1e-9);
  // Signal must oscillate: zero crossings roughly 2 * rate * duration.
  std::size_t crossings = 0;
  for (std::size_t i = 1; i < resp.values.size(); ++i) {
    if ((resp.values[i] >= 0.0) != (resp.values[i - 1] >= 0.0)) ++crossings;
  }
  const double expected = 2.0 * p.resp_rate_hz * 300.0;
  EXPECT_NEAR(static_cast<double>(crossings), expected, expected * 0.6);
}

TEST(RrGeneration, Validation) {
  const auto p = tachy_patient();
  SessionSignalParams bad;
  bad.duration_s = 0.0;
  std::mt19937_64 rng(1);
  EXPECT_THROW(generate_rr_series(p, SessionEvents{}, bad, rng), std::invalid_argument);
  EXPECT_THROW(generate_respiration(p, SessionEvents{}, bad, rng), std::invalid_argument);
}

TEST(Slicing, RrAndRespirationWindows) {
  RrSeries rr;
  for (int i = 0; i < 10; ++i) {
    rr.beat_times_s.push_back(static_cast<double>(i));
    rr.rr_s.push_back(1.0);
  }
  const auto cut = slice_rr(rr, 2.5, 6.5);
  EXPECT_EQ(cut.size(), 4u);
  EXPECT_DOUBLE_EQ(cut.beat_times_s.front(), 0.5);  // Rebased to window start.
  EXPECT_THROW(slice_rr(rr, 5.0, 1.0), std::invalid_argument);

  RespirationSeries resp;
  resp.fs_hz = 4.0;
  resp.values.assign(40, 1.0);
  const auto rcut = slice_respiration(resp, 2.0, 5.0);
  EXPECT_EQ(rcut.values.size(), 12u);
  EXPECT_THROW(slice_respiration(resp, 5.0, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace svt::ecg
