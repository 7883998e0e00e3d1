// Multi-patient continuous-streaming demo: the sharded serving engine
// running a ward of concurrent patients with NO result barrier. Each
// patient's single-lead ECG is synthesised with an individual autonomic
// profile (one of them seizing mid-stream), chopped into telemetry-sized
// chunks, and pushed round-robin -- exactly the arrival pattern of a
// wireless body-sensor gateway. Extraction AND classification run on the
// worker threads (patients consistently sharded across them); every chunk
// that completes analysis windows is classified immediately and delivered
// through the ResultSink, so an ictal alert fires within one chunk's
// latency instead of waiting for a flush.
//
// The demo also exercises the serving-infrastructure features:
//  * backpressure: the shard queues are bounded (kBlock policy -- a
//    too-fast gateway is throttled, never OOMs the pipeline),
//  * per-patient models: the seizing patient gets a dedicated registry
//    entry,
//  * persistence: that entry round-trips through the ServableModel text
//    format first (what a deployment loads at startup -- no requantisation),
//  * hot-swap: it is installed mid-stream while results keep flowing; the
//    swap fences on the patient's next classified batch, and the explicit
//    flush() around it upgrades that to a hard fence,
//  * flush() as terminal fence: the only flush in the demo is the final
//    drain before the summary.
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <sstream>
#include <vector>

#include "core/tailoring.hpp"
#include "ecg/dataset.hpp"
#include "ecg/ecg_synth.hpp"
#include "features/extractor.hpp"
#include "rt/model_registry.hpp"
#include "rt/sharded_classifier.hpp"

int main() {
  using namespace svt;

  // 1. Train a tailored fixed-point detector on a synthetic cohort (same
  //    flow as examples/quickstart.cpp).
  ecg::DatasetParams params;
  params.windows_per_session = 12;
  const auto dataset = ecg::generate_dataset(params);
  const auto matrix = features::extract_feature_matrix(dataset);
  core::TailoringConfig tconfig;
  tconfig.num_features = 30;
  tconfig.sv_budget = 68;
  const auto detector = core::tailor_detector(matrix.samples, matrix.labels, tconfig);
  std::printf("detector: %zu features, %zu SVs, fixed-point %s\n",
              detector.selected_features().size(), detector.model().num_support_vectors(),
              detector.quantized() ? "yes" : "no");

  // 2. One continuous sharded runtime for the whole ward: the cohort
  //    detector is the registry default; 4 workers run extraction +
  //    classification; shard queues bounded at 256 chunks with blocking
  //    backpressure; 60 s windows hopping by 30 s (short windows keep the
  //    demo fast; the paper uses 3 minutes). The ResultSink fires as soon
  //    as a patient's batch classifies -- alerts print mid-stream, no
  //    flush needed.
  rt::StreamConfig sconfig;
  sconfig.fs_hz = 250.0;
  sconfig.window_s = 60.0;
  sconfig.stride_s = 30.0;
  rt::EngineOptions options;
  options.queue_capacity = 256;
  options.backpressure = rt::BackpressurePolicy::kBlock;
  auto registry = std::make_shared<rt::ModelRegistry>(rt::ServableModel::from_detector(detector));

  std::mutex print_mutex;
  std::map<int, std::size_t> ictal_windows, total_windows;
  rt::ResultSink sink = [&](std::span<const rt::WindowResult> batch) {
    const std::lock_guard<std::mutex> lock(print_mutex);
    for (const auto& r : batch) {
      ++total_windows[r.patient_id];
      if (r.label > 0) {
        ++ictal_windows[r.patient_id];
        std::printf("  ALERT patient %d: ictal window at %5.0f-%5.0f s (f=%+.3f, %zu beats)\n",
                    r.patient_id, r.start_s, r.start_s + sconfig.window_s, r.decision_value,
                    r.num_beats);
      }
    }
  };
  options.num_workers = 4;
  options.sink = std::move(sink);
  rt::ShardedStreamClassifier classifier(registry, sconfig, std::move(options));
  std::printf("runtime: %zu workers, continuous delivery, %zu-chunk bounded queues (%s)\n\n",
              classifier.num_workers(), options.queue_capacity,
              options.backpressure == rt::BackpressurePolicy::kBlock ? "block" : "drop-oldest");

  // 3. A patient-3-specific model: same trained SVM, but quantised at a
  //    wider 12-bit design point (say, after a clinician flagged borderline
  //    decisions). Round-trip it through the on-disk text format first --
  //    this is what a deployment ships and loads, skipping requantisation.
  core::QuantConfig wide;
  wide.feature_bits = 12;
  std::stringstream model_file;
  rt::ServableModel(detector.selected_features(), detector.scaler(), detector.model(),
                    core::QuantizedModel::build(detector.model(), wide))
      .save(model_file);
  const auto patient3_model = rt::ServableModel::load(model_file);
  std::printf("patient-3 model: %d-bit features, %zu-byte model file (loaded, no requantise)\n\n",
              patient3_model.quantized()->config().feature_bits, model_file.str().size());

  // 4. Synthesise 6 minutes of ECG for each patient in the default cohort;
  //    patient 3 has a seizure starting at 150 s.
  const auto cohort = ecg::make_default_cohort();
  const double duration_s = 360.0;
  std::map<int, ecg::EcgWaveform> waveforms;
  for (const auto& patient : cohort) {
    ecg::SessionEvents events;
    if (patient.id == 3) events.seizures.push_back({150.0, 90.0, 1.2});
    ecg::SessionSignalParams sp;
    sp.duration_s = duration_s;
    std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(patient.id));
    const auto rr = ecg::generate_rr_series(patient, events, sp, rng);
    const auto resp = ecg::generate_respiration(patient, events, sp, rng);
    waveforms[patient.id] = ecg::synthesize_ecg(rr, resp, ecg::EcgSynthParams{}, rng);
  }

  // 5. Stream 4-second telemetry chunks round-robin; alerts surface from
  //    the sink while chunks are still arriving. Halfway through, hot-swap
  //    patient 3's model while the stream is live: the explicit flush()
  //    fences every pre-swap window onto the old model, and every window
  //    classified afterwards is served by the 12-bit entry.
  const std::size_t chunk = static_cast<std::size_t>(4.0 * sconfig.fs_hz);
  std::map<int, std::size_t> offsets;
  bool any_left = true;
  bool swapped = false;
  std::size_t round = 0;
  while (any_left) {
    any_left = false;
    for (const auto& [pid, wf] : waveforms) {
      std::size_t& off = offsets[pid];
      if (off >= wf.samples_mv.size()) continue;
      const std::size_t n = std::min(chunk, wf.samples_mv.size() - off);
      classifier.push_samples(pid, std::span(wf.samples_mv).subspan(off, n));
      off += n;
      if (off < wf.samples_mv.size()) any_left = true;
    }
    if (!swapped && ++round >= 45) {  // ~180 simulated seconds in.
      classifier.flush();             // Hard fence: pre-swap windows use the old model.
      registry->install(3, std::make_shared<const rt::ServableModel>(patient3_model));
      const std::lock_guard<std::mutex> lock(print_mutex);
      std::printf("  SWAP  patient 3 -> 12-bit model (registry generation %llu, stream live)\n",
                  static_cast<unsigned long long>(registry->generation()));
      swapped = true;
    }
  }
  classifier.flush();  // Terminal fence: drain and deliver everything pushed.

  const rt::EngineStats stats = classifier.stats();  // Exact after the fence.
  std::printf("\nward summary (%zu patients, %.0f s each, %zu windows delivered, "
              "%zu rejected, %zu chunks dropped):\n",
              waveforms.size(), duration_s, stats.delivered_windows, stats.rejected_windows,
              stats.dropped_chunks);
  for (const auto& [pid, total] : total_windows) {
    std::printf("  patient %d (shard %zu): %zu/%zu windows flagged ictal%s\n", pid,
                classifier.shard_of(pid), ictal_windows[pid], total,
                pid == 3 ? "  [dedicated 12-bit model after swap]" : "");
  }
  return 0;
}
