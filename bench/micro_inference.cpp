// Google-benchmark microbenchmarks of the inference engines and key DSP
// substrates: one window through the served float and bit-accurate
// fixed-point engines, per-window feature extraction, FFT, and SMO training.
#include <benchmark/benchmark.h>

#include <optional>
#include <random>

#include "core/quantize.hpp"
#include "core/tailoring.hpp"
#include "dsp/fft.hpp"
#include "ecg/dataset.hpp"
#include "features/extractor.hpp"
#include "rt/model_registry.hpp"
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

void BM_FeatureExtraction(benchmark::State& state) {
  const auto& fx = Fixture::get();
  const auto& window = fx.dataset.sessions.front().windows.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::extract_features(window));
  }
}
BENCHMARK(BM_FeatureExtraction);

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
