// Pan-Tompkins detection quality on synthetic ECG, measured on what is
// served: the beats of one ecg::LaneQrsDetector lane, and the R-amplitude
// EDR series rt::WindowExtractor rebuilds from them.
#include "ecg/lane_qrs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "dsp/statistics.hpp"
#include "ecg/ecg_synth.hpp"
#include "rt/window_extractor.hpp"

namespace svt::ecg {
namespace {

/// Build a deterministic tachogram at a fixed heart rate.
RrSeries fixed_rate_rr(double hr_bpm, double duration_s) {
  RrSeries rr;
  const double interval = 60.0 / hr_bpm;
  double t = 0.0;
  while (t < duration_s) {
    t += interval;
    rr.beat_times_s.push_back(t);
    rr.rr_s.push_back(interval);
  }
  return rr;
}

/// Beat times [s] from one LaneQrsDetector lane run over the whole record
/// and finished as a finite record.
std::vector<double> served_beat_times(const EcgWaveform& ecg) {
  LaneQrsDetector detector(ecg.fs_hz);
  const std::size_t lane = detector.add_lane();
  detector.push_one(lane, ecg.samples_mv);
  detector.finish(lane);
  const BeatRing& beats = detector.beats(lane);
  std::vector<double> times(beats.size());
  for (std::size_t i = 0; i < beats.size(); ++i)
    times[i] = static_cast<double>(beats[i].sample_index) / ecg.fs_hz;
  return times;
}

/// Intervals [s] between successive served beats.
std::vector<double> served_rr(const EcgWaveform& ecg) {
  std::vector<double> rr;
  dsp::successive_differences_into(served_beat_times(ecg), rr);
  return rr;
}

/// A one-feature workload that records each window's served EDR series.
class EdrCapture final : public rt::Workload {
 public:
  explicit EdrCapture(std::vector<std::vector<double>>& windows) : windows_(windows) {}
  const char* name() const override { return "edr_capture"; }
  std::size_t num_features() const override { return 1; }
  std::string feature_name(std::size_t) const override { return "edr_points"; }
  void extract(const rt::WindowSubstrate& substrate, features::FeatureScratch&,
               std::span<double> out) const override {
    windows_.emplace_back(substrate.edr.begin(), substrate.edr.end());
    out[0] = static_cast<double>(substrate.edr.size());
  }

 private:
  std::vector<std::vector<double>>& windows_;
};

TEST(EcgSynth, ProducesPlausibleWaveform) {
  const auto rr = fixed_rate_rr(72.0, 30.0);
  EcgSynthParams params;
  params.noise_sigma_mv = 0.0;
  params.baseline_wander_mv = 0.0;
  std::mt19937_64 rng(1);
  const auto ecg = synthesize_ecg(rr, RespirationSeries{}, params, rng);
  EXPECT_NEAR(ecg.duration_s(), 31.5, 1.5);
  // R peaks dominate: max amplitude near the configured R wave height.
  EXPECT_NEAR(dsp::max_value(ecg.samples_mv), params.morphology.r.amplitude_mv, 0.15);
  // Q/S negative deflections exist.
  EXPECT_LT(dsp::min_value(ecg.samples_mv), -0.1);
}

TEST(EcgSynth, Validation) {
  RrSeries empty;
  EcgSynthParams params;
  std::mt19937_64 rng(1);
  EXPECT_THROW(synthesize_ecg(empty, RespirationSeries{}, params, rng),
               std::invalid_argument);
}

TEST(PanTompkins, RecoversBeatCountOnCleanEcg) {
  const auto rr = fixed_rate_rr(75.0, 60.0);
  EcgSynthParams params;
  std::mt19937_64 rng(2);
  const auto ecg = synthesize_ecg(rr, RespirationSeries{}, params, rng);
  const auto beats = served_beat_times(ecg);
  const auto expected = static_cast<double>(rr.size());
  EXPECT_NEAR(static_cast<double>(beats.size()), expected, expected * 0.05 + 2.0);
}

TEST(PanTompkins, RecoveredRrMatchesTruth) {
  const auto rr = fixed_rate_rr(66.0, 60.0);
  EcgSynthParams params;
  std::mt19937_64 rng(3);
  const auto ecg = synthesize_ecg(rr, RespirationSeries{}, params, rng);
  const auto recovered = served_rr(ecg);
  ASSERT_GT(recovered.size(), 30u);
  // Median recovered interval within 10 ms of the true one.
  EXPECT_NEAR(dsp::median(recovered), 60.0 / 66.0, 0.010);
}

TEST(PanTompkins, WindowEdrTracksRespiration) {
  // Respiration modulates R amplitude; the EDR series the extractor rebuilds
  // from the served beats must follow the respiration over each window's
  // grid (point k of a window sits at its start + k / edr_fs_hz).
  const auto rr = fixed_rate_rr(72.0, 120.0);
  RespirationSeries resp;
  resp.fs_hz = 4.0;
  const double f_resp = 0.25;
  resp.values.resize(static_cast<std::size_t>(130.0 * resp.fs_hz));
  for (std::size_t i = 0; i < resp.values.size(); ++i) {
    resp.values[i] =
        std::sin(2.0 * std::numbers::pi * f_resp * static_cast<double>(i) / resp.fs_hz);
  }
  EcgSynthParams params;
  params.edr_modulation = 0.40;
  params.noise_sigma_mv = 0.002;
  std::mt19937_64 rng(4);
  const auto ecg = synthesize_ecg(rr, resp, params, rng);

  std::vector<std::vector<double>> edr_windows;
  rt::StreamConfig config;
  config.fs_hz = ecg.fs_hz;
  config.window_s = 60.0;
  config.stride_s = 60.0;
  config.edr_fs_hz = resp.fs_hz;
  config.workloads = {std::make_shared<EdrCapture>(edr_windows)};
  rt::WindowExtractor extractor(config);
  std::vector<double> starts;
  const rt::WindowSink sink = [&](rt::ExtractedWindow&& w) { starts.push_back(w.start_s); };
  extractor.push_samples(1, ecg.samples_mv, sink);
  extractor.end_patient(1, sink);

  ASSERT_EQ(starts.size(), 2u);
  ASSERT_EQ(edr_windows.size(), 2u);
  for (std::size_t w = 0; w < starts.size(); ++w) {
    const auto& edr = edr_windows[w];
    const auto first = static_cast<std::size_t>(std::llround(starts[w] * resp.fs_hz));
    ASSERT_EQ(edr.size(), static_cast<std::size_t>(config.window_s * resp.fs_hz));
    ASSERT_LE(first + edr.size(), resp.values.size());
    const std::span<const double> truth(resp.values.data() + first, edr.size());
    EXPECT_GT(dsp::pearson(edr, truth), 0.9) << "window at " << starts[w] << " s";
  }
}

class PanTompkinsRates : public ::testing::TestWithParam<double> {};

TEST_P(PanTompkinsRates, TracksHeartRate) {
  const double hr = GetParam();
  const auto rr = fixed_rate_rr(hr, 60.0);
  EcgSynthParams params;
  std::mt19937_64 rng(static_cast<unsigned>(hr));
  const auto ecg = synthesize_ecg(rr, RespirationSeries{}, params, rng);
  const auto recovered = served_rr(ecg);
  ASSERT_GT(recovered.size(), 20u);
  const double hr_est = 60.0 / dsp::median(recovered);
  EXPECT_NEAR(hr_est, hr, hr * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, PanTompkinsRates, ::testing::Values(50.0, 70.0, 95.0, 120.0));

}  // namespace
}  // namespace svt::ecg
