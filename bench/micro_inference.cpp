// Google-benchmark microbenchmarks of the inference engines and key DSP
// substrates: one window through the served float and bit-accurate
// fixed-point engines, each seizure feature family on a served 180 s window
// (HRV, Lorentz, the AR(9) fit alone and in a pair, the PSD summary), FFT,
// and SMO training.
#include <benchmark/benchmark.h>

#include <array>
#include <optional>
#include <random>
#include <string>

#include "core/quantize.hpp"
#include "core/tailoring.hpp"
#include "dsp/ar_model.hpp"
#include "dsp/fft.hpp"
#include "ecg/dataset.hpp"
#include "ecg/ecg_synth.hpp"
#include "features/ar_features.hpp"
#include "features/extractor.hpp"
#include "features/hrv_features.hpp"
#include "features/lorentz_features.hpp"
#include "features/psd_features.hpp"
#include "rt/model_registry.hpp"
#include "rt/window_extractor.hpp"
#include "svm/trainer.hpp"

namespace {

using namespace svt;

/// Small shared fixture built once (dataset generation dominates otherwise).
struct Fixture {
  ecg::Dataset dataset;
  features::FeatureMatrix matrix;
  core::TailoredDetector detector;

  static const Fixture& get() {
    static Fixture f = [] {
      Fixture fx;
      ecg::DatasetParams params;
      params.windows_per_session = 10;
      fx.dataset = ecg::generate_dataset(params);
      fx.matrix = features::extract_feature_matrix(fx.dataset);
      core::TailoringConfig config;
      config.num_features = 30;
      config.sv_budget = 68;
      std::vector<std::size_t> idx(fx.matrix.num_features());
      for (std::size_t j = 0; j < idx.size(); ++j) idx[j] = j;
      // Gains aligned with the *selected* subset are set inside tailor_detector
      // via config.post_gains; selection happens first, so pass full-order
      // gains for the 30 kept features after a dry selection.
      core::TailoringConfig probe = config;
      probe.quant.reset();
      auto dry = core::tailor_detector(fx.matrix.samples, fx.matrix.labels, probe);
      config.post_gains = features::category_gains(dry.selected_features());
      fx.detector = core::tailor_detector(fx.matrix.samples, fx.matrix.labels, config);
      return fx;
    }();
    return f;
  }
};

/// One raw feature vector per iteration through a served model: select +
/// scale, then a one-window batch through its engine.
void run_decision(benchmark::State& state, const rt::ServableModel& model) {
  const auto& x = Fixture::get().matrix.samples.front();
  std::vector<std::vector<double>> rows(1);
  std::vector<double> values;
  rt::KernelScratch scratch;
  for (auto _ : state) {
    model.prepare_row(x, rows.front());
    model.decision_values(rows, values, scratch);
    benchmark::DoNotOptimize(values.front());
  }
}

void BM_FloatDecision(benchmark::State& state) {
  const auto& d = Fixture::get().detector;
  const rt::ServableModel float_model(d.selected_features(), d.scaler(), d.model(), std::nullopt);
  run_decision(state, float_model);
}
BENCHMARK(BM_FloatDecision);

void BM_QuantizedDecision(benchmark::State& state) {
  run_decision(state, rt::ServableModel::from_detector(Fixture::get().detector));
}
BENCHMARK(BM_QuantizedDecision);

/// What the seizure workload reads from one served window's substrate.
struct ServedWindow {
  std::vector<double> rr;   ///< RR intervals [s].
  std::vector<double> edr;  ///< Uniform EDR series (720 points at 180 s, 4 Hz).
  dsp::PsdEstimate psd;     ///< The window's Welch PSD.
};

/// A workload that copies each window's substrate out of the extractor.
class SubstrateCapture final : public rt::Workload {
 public:
  explicit SubstrateCapture(std::vector<ServedWindow>& windows) : windows_(windows) {}
  const char* name() const override { return "capture"; }
  std::size_t num_features() const override { return 1; }
  std::string feature_name(std::size_t) const override { return "captured"; }
  void extract(const rt::WindowSubstrate& s, features::FeatureScratch& scratch,
               std::span<double> out) const override {
    ServedWindow& w = windows_.emplace_back();
    w.rr.assign(s.rr_s.begin(), s.rr_s.end());
    w.edr.assign(s.edr.begin(), s.edr.end());
    if (const dsp::PsdEstimate* psd = s.psd->window_psd(scratch)) w.psd = *psd;
    out[0] = 0.0;
  }

 private:
  std::vector<ServedWindow>& windows_;
};

/// The paper configuration's served windows (180 s every 30 s, 250 Hz ECG
/// through the lane detector) of one 5-minute synthetic session, built once.
const std::vector<ServedWindow>& served_windows() {
  static const std::vector<ServedWindow> windows = [] {
    std::vector<ServedWindow> captured;
    rt::StreamConfig config;
    config.window_s = 180.0;
    config.stride_s = 30.0;
    config.workloads = {std::make_shared<SubstrateCapture>(captured)};
    ecg::SessionSignalParams session;
    session.duration_s = 300.0;
    std::mt19937_64 rng(7);
    const auto ecg =
        ecg::synthesize_session(ecg::PatientProfile{}, ecg::SessionEvents{}, session, {}, rng);
    rt::WindowExtractor extractor(config);
    const rt::WindowSink sink = [](rt::ExtractedWindow&&) {};
    extractor.push_samples(0, ecg.samples_mv, sink);
    extractor.end_patient(0, sink);
    return captured;
  }();
  return windows;
}

void BM_HrvFeatures(benchmark::State& state) {
  const ServedWindow& w = served_windows().front();
  features::FeatureScratch scratch;
  std::array<double, features::kNumHrvFeatures> out{};
  for (auto _ : state) {
    features::compute_hrv_features(w.rr, scratch, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HrvFeatures);

void BM_LorentzFeatures(benchmark::State& state) {
  const ServedWindow& w = served_windows().front();
  features::FeatureScratch scratch;
  std::array<double, features::kNumLorentzFeatures> out{};
  for (auto _ : state) {
    features::compute_lorentz_features(w.rr, scratch, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LorentzFeatures);

/// One window's AR(9) fit, alone: the series runs in both lanes.
void BM_ArFitLone(benchmark::State& state) {
  const ServedWindow& w = served_windows().front();
  dsp::BurgScratch scratch;
  for (auto _ : state) {
    dsp::ar_burg(w.edr, w.edr, features::kArOrder, scratch);
    benchmark::DoNotOptimize(scratch.model[0].coefficients.data());
  }
}
BENCHMARK(BM_ArFitLone);

/// Two windows' AR(9) fits in one call, as the extractor pairs them;
/// items_per_second counts windows.
void BM_ArFitPair(benchmark::State& state) {
  const auto& windows = served_windows();
  dsp::BurgScratch scratch;
  for (auto _ : state) {
    dsp::ar_burg(windows[0].edr, windows[1].edr, features::kArOrder, scratch);
    benchmark::DoNotOptimize(scratch.model[1].coefficients.data());
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_ArFitPair);

void BM_SummarizePsd(benchmark::State& state) {
  const ServedWindow& w = served_windows().front();
  std::array<double, features::kNumPsdFeatures> out{};
  for (auto _ : state) {
    features::summarize_psd(w.psd, 4.0, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SummarizePsd);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(1);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = gauss(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::magnitude_squared_spectrum(x));
  }
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SmoTraining(benchmark::State& state) {
  const auto& fx = Fixture::get();
  svm::TrainParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        svm::train_svm(fx.matrix.samples, fx.matrix.labels, svm::quadratic_kernel(), params));
  }
}
BENCHMARK(BM_SmoTraining)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
