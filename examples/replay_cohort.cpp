// Replay a recorded (WFDB-format) cohort through the sharded serving engine.
//
// The demo is the full archive-to-alerts path: it writes a deterministic
// synthetic fixture cohort as WFDB records (both storage formats, both
// format-212 tail parities, multi-channel records where the ECG is not
// channel 0, a non-zero baseline), then replays the directory through
// rt::CohortReplayer — records interleaved chunk by chunk like a telemetry
// gateway, end_stream() at each record's end so the trailing windows
// classify — and prints per-record replay stats (× real time, windows,
// ictal counts).
//
// CI runs this with --emit to capture the (patient, time, decision) stream
// and diffs it against the committed golden file (tests/golden/
// replay_smoke.txt, tolerance-checked by tests/golden/check_replay.py): the
// whole ingest path — writer, header parser, 212/16 decoders, channel
// selection, replayer, sharded engine — has to reproduce the committed
// decisions exactly for the job to pass. The decision stream is sorted by
// (patient, time), so it is deterministic under any worker count.
//
//   ./replay_cohort [--dir DIR] [--workers N] [--speed X] [--emit FILE]
//                   [--patients N] [--duration S]
//
// --speed 0 (default) replays as fast as possible; --speed 1 paces the
// cohort at live-ward real time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "io/cohort_fixture.hpp"
#include "rt/cohort_replayer.hpp"

int main(int argc, char** argv) {
  using namespace svt;

  std::string dir = "replay_fixture_cohort";
  std::string emit_path;
  std::size_t workers = 2;
  double speed = 0.0;
  io::CohortFixtureParams fixture;
  fixture.num_patients = 6;
  fixture.duration_s = 60.0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const char* value = a + 1 < argc ? argv[a + 1] : nullptr;
    if (arg == "--dir" && value) {
      dir = value;
      ++a;
    } else if (arg == "--workers" && value) {
      workers = static_cast<std::size_t>(std::strtoul(value, nullptr, 10));
      ++a;
    } else if (arg == "--speed" && value) {
      speed = std::strtod(value, nullptr);
      ++a;
    } else if (arg == "--emit" && value) {
      emit_path = value;
      ++a;
    } else if (arg == "--patients" && value) {
      fixture.num_patients = static_cast<std::size_t>(std::strtoul(value, nullptr, 10));
      ++a;
    } else if (arg == "--duration" && value) {
      fixture.duration_s = std::strtod(value, nullptr);
      ++a;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--dir DIR] [--workers N] [--speed X] [--emit FILE]"
                   " [--patients N] [--duration S]\n",
                   argv[0]);
      return 2;
    }
  }

  // 1. Write the fixture cohort (deterministic in the seed: rewriting the
  //    same directory is byte-identical, which is what the CI gate relies
  //    on).
  const auto written = io::write_synthetic_cohort(dir, fixture);
  std::printf("fixture cohort: %zu records x %.0f s @ %.0f Hz in %s/\n", written.size(),
              fixture.duration_s, fixture.fs_hz, dir.c_str());
  for (const auto& rec : written)
    std::printf("  %s  patient %d  fmt %3d  %zu ch (ECG ch %zu)  %zu samples%s\n",
                rec.name.c_str(), rec.patient_id, rec.format, rec.num_signals, rec.ecg_channel,
                rec.num_samples, rec.num_samples % 2 != 0 ? "  [odd: 212 half-group tail]" : "");

  // 2. One deterministic, training-free serving model for the whole ward
  //    (identity selection over the 53 raw features + fixed-point engine).
  auto registry = std::make_shared<rt::ModelRegistry>(rt::synthetic_full_feature_model());

  // 3. Replay the directory through the sharded engine: 20 s windows
  //    hopping by 10 s, results collected continuously from the sink.
  rt::StreamConfig config;
  config.fs_hz = fixture.fs_hz;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  std::mutex mutex;
  std::vector<rt::WindowResult> results;
  rt::EngineOptions eopts;
  eopts.num_workers = workers;
  eopts.sink = [&](std::span<const rt::WindowResult> batch) {
    const std::lock_guard<std::mutex> lock(mutex);
    results.insert(results.end(), batch.begin(), batch.end());
  };
  rt::CohortReplayer replayer(registry, config, std::move(eopts));
  rt::ReplayOptions options;
  options.speed = speed;
  const auto report = replayer.replay_directory(dir, options);

  std::printf("\nreplay: %zu workers, %s, %.1f s of signal in %.2f s wall (%.1fx real time)\n",
              workers, speed > 0.0 ? "paced" : "as fast as possible", report.total_duration_s,
              report.wall_s, report.x_realtime);
  std::map<int, std::size_t> ictal;
  for (const auto& r : results)
    if (r.label > 0) ++ictal[r.patient_id];
  for (const auto& stats : report.records)
    std::printf("  %s  patient %d: %6.1fx real time, %zu windows (%zu ictal)\n",
                stats.record.c_str(), stats.patient_id, stats.x_realtime, stats.windows,
                ictal[stats.patient_id]);
  std::printf("  total: %zu windows delivered, %zu rejected, %zu chunks dropped\n",
              report.windows, replayer.engine().stats().rejected_windows, report.dropped_chunks);
  std::printf("  segment cache: %.1f%% hit rate (%llu hits, %llu misses, %llu evictions)\n",
              report.cache.hit_rate() * 100.0,
              static_cast<unsigned long long>(report.cache.hits),
              static_cast<unsigned long long>(report.cache.misses),
              static_cast<unsigned long long>(report.cache.evictions));

  // 4. The deterministic decision stream: sorted by (patient, time), every
  //    window's decision — what the golden-file CI gate diffs.
  std::sort(results.begin(), results.end(), [](const auto& a, const auto& b) {
    return a.patient_id != b.patient_id ? a.patient_id < b.patient_id : a.start_s < b.start_s;
  });
  double min_margin = 1e30;
  for (const auto& r : results) min_margin = std::min(min_margin, std::abs(r.decision_value));
  std::printf("  smallest |decision| margin: %.6f (label flips need drift beyond this)\n",
              min_margin);
  if (!emit_path.empty()) {
    std::FILE* out = std::fopen(emit_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", emit_path.c_str());
      return 1;
    }
    std::fprintf(out, "# replay_cohort decision stream: patient start_s label decision beats\n");
    std::fprintf(out, "# fixture: %zu patients x %.0f s, seed %llu; stream: %.0f/%.0f s windows\n",
                 fixture.num_patients, fixture.duration_s,
                 static_cast<unsigned long long>(fixture.seed), config.window_s,
                 config.stride_s);
    for (const auto& r : results)
      std::fprintf(out, "%d %.2f %d %.6f %zu\n", r.patient_id, r.start_s, r.label,
                   r.decision_value, r.num_beats);
    std::fclose(out);
    std::printf("  wrote %zu decision lines to %s\n", results.size(), emit_path.c_str());
  }
  return 0;
}
