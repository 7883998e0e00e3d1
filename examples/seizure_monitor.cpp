// WBSN firmware loop: the full acquisition path of Figure 1, as served.
//
// Streams a synthesised single-lead ECG waveform (with respiration-modulated
// R amplitudes) through rt::StreamClassifier in 1 s chunks, the path every
// serving engine runs: Pan-Tompkins QRS detection, the RR tachogram and the
// ECG-derived respiration (EDR) series rebuilt from the detected beats, the
// 53 features per 3-minute window, and a tailored fixed-point SVM decision
// per window -- exactly what the paper's wearable node would execute.
#include <algorithm>
#include <cstdio>
#include <span>

#include "core/tailoring.hpp"
#include "ecg/ecg_synth.hpp"
#include "features/extractor.hpp"
#include "rt/stream_classifier.hpp"

int main() {
  using namespace svt;

  // --- Train a detector on the standard synthetic cohort (RR-level path).
  ecg::DatasetParams params;
  params.windows_per_session = 12;
  const auto dataset = ecg::generate_dataset(params);
  const auto matrix = features::extract_feature_matrix(dataset);
  core::TailoringConfig config;
  // Deploy on the HRV + Lorentz feature groups (features 1-15): the node
  // rebuilds these from detected beats as training does from the generated
  // tachogram, whereas training reads the EDR groups from the generated
  // respiration rather than from the R-amplitude EDR the node serves.
  for (std::size_t j = 0; j < 15; ++j) config.explicit_features.push_back(j);
  config.sv_budget = 100;
  const auto detector = core::tailor_detector(matrix.samples, matrix.labels, config);
  std::printf("detector ready: %zu SVs, %d/%d-bit fixed point\n",
              detector.model().num_support_vectors(),
              detector.quantized()->pipeline().feature_bits,
              detector.quantized()->pipeline().alpha_bits);

  // --- "Patient wearing the node": 30 minutes with one seizure at t=900 s.
  const auto patient = ecg::make_default_cohort()[0];
  ecg::SessionEvents events;
  events.seizures.push_back({900.0, 120.0, 1.1});
  events.arousals.push_back({300.0, 90.0, 0.8});  // A confounding arousal.
  ecg::SessionSignalParams signal;
  signal.duration_s = 1800.0;
  std::mt19937_64 rng(2026);
  const auto rr_truth = ecg::generate_rr_series(patient, events, signal, rng);
  const auto respiration = ecg::generate_respiration(patient, events, signal, rng);

  ecg::EcgSynthParams synth;
  const auto ecg_signal = ecg::synthesize_ecg(rr_truth, respiration, synth, rng);
  std::printf("streaming %.0f s of ECG at %.0f Hz (%zu samples) in 1 s chunks\n",
              ecg_signal.duration_s(), ecg_signal.fs_hz, ecg_signal.samples_mv.size());

  // --- The node: samples in, one decision per 3-minute window out.
  rt::StreamConfig stream;
  stream.fs_hz = ecg_signal.fs_hz;
  stream.window_s = 180.0;
  stream.stride_s = 180.0;
  rt::StreamClassifier node(rt::ServableModel::from_detector(detector), stream);
  constexpr int kPatient = 0;

  const auto chunk = static_cast<std::size_t>(ecg_signal.fs_hz);
  for (std::span<const double> rest(ecg_signal.samples_mv); !rest.empty();) {
    const std::size_t n = std::min(chunk, rest.size());
    node.push_samples(kPatient, rest.first(n));
    rest = rest.subspan(n);
  }
  // End of the recording: flush the detector's tail, so no full window is
  // left waiting for samples that will never come.
  node.end_stream(kPatient);

  std::printf("\n%8s %8s %10s %12s\n", "window", "beats", "decision", "truth");
  std::size_t window_beats = 0;
  for (const auto& r : node.flush()) {
    const bool truth = events.seizures.front().overlaps(r.start_s, r.start_s + stream.window_s);
    std::printf("%5.0f s %8zu %10s %12s\n", r.start_s, r.num_beats,
                r.label > 0 ? "SEIZURE" : "normal", truth ? "(ictal)" : "");
    window_beats += r.num_beats;
  }
  std::printf("\nwindows hold %zu beats (true beats: %zu)\n", window_beats, rr_truth.size());
  return 0;
}
