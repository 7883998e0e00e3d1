// wardbench: the ward-serving benchmark's command-line program.
//
//   wardbench --workload paper-ward|telemetry-open --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//             [--plant none|noop|seizure-busy|sink-delay --plant-us US]
//
// Untraced (--trace 0): synthesizes the workload's inputs and oracle from the
// seed, sets up kSetupReps times, half before and half after a run of S
// seconds (setup_s is the median set-up CPU time at the reference speed), and
// prints every end-to-end metric, plus the ungated wall-clock ones. Traced
// (--trace 1): runs S/2 untraced and S/2 traced, then the single-threaded
// layer passes, prints every per-layer metric and writes the Chrome trace
// file. The last stdout line is one JSON object {correct, attempted, failed,
// metrics}.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "ecg/lane_qrs.hpp"
#include "rt/packed_kernel.hpp"

namespace {

using namespace wb;

/// Set-ups per untraced run, besides the run's own; setup_s is their median.
/// Half run before the measured run and half after it: the host's speed
/// shifts between regimes that last a fraction of a second, and set-ups
/// taken a run apart sample more of them than one burst does.
constexpr int kSetupReps = 21;
/// Speed probes before and after each of those set-ups.
constexpr int kSetupProbes = 9;

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() == "1";
    else if (arg == "--out-dir") o.out_dir = value();
    else if (arg == "--plant") o.plant = value();
    else if (arg == "--plant-us") o.plant_us = std::stod(value());
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  if (o.plant != "none" && o.plant != "noop" && o.plant != "seizure-busy" &&
      o.plant != "sink-delay")
    throw std::invalid_argument("unknown --plant " + o.plant);
  return o;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Build and host fingerprint: results whose fingerprints differ are not
/// comparable (e.g. a scalar-lane build against an AVX2 one).
std::string fingerprint(const Options& o) {
  const char* isa_override = std::getenv("SVT_LANE_ISA");
  std::ostringstream s;
  s << "{\"build_type\": \"" << WARDBENCH_BUILD_TYPE << "\", \"svt_simd\": "
    << (WARDBENCH_SVT_SIMD ? "true" : "false")
    << ", \"simd_kernel\": " << (rt::simd_kernel_enabled() ? "true" : "false")
    << ", \"lane_isa\": \"" << ecg::lane_isa_name() << "\", \"lane_isa_override\": \""
    << json_escape(isa_override != nullptr ? isa_override : "") << "\", \"compiler\": \"gcc "
    << json_escape(__VERSION__) << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"seed\": " << o.seed << "}";
  return s.str();
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %16s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream s;
  s << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    s << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << number(metrics[i].value)
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  s << "}}";
  return s.str();
}

/// The wall-clock metrics: wall throughput and latency percentiles are taken
/// per one-second interval of the run (by result arrival; the first interval,
/// which fills the queues, and the last, partial one are left out) and
/// reported as the median over intervals. They are printed by every run, and
/// reported with the per-layer metrics, but not gated: on a shared host the
/// neighbours' load moves them by more than any allowed bound.
std::vector<Metric> wall_metrics(const RunStats& run) {
  constexpr std::int64_t kIntervalNs = 1'000'000'000;
  const auto intervals = static_cast<std::size_t>(run.wall_s);
  std::vector<std::vector<float>> by_interval(intervals);
  std::vector<std::int64_t> first(intervals, INT64_MAX), last(intervals, 0);
  for (const Sample& s : run.samples) {
    const std::int64_t k = (s.arrive_ns - run.run_start_ns) / kIntervalNs;
    if (k < 1 || static_cast<std::size_t>(k) >= intervals) continue;
    by_interval[k].push_back(s.latency_ms);
    first[k] = std::min(first[k], s.arrive_ns);
    last[k] = std::max(last[k], s.arrive_ns);
  }
  std::vector<double> rate, p50, p99;
  std::size_t counted = 0, fewest = SIZE_MAX;
  for (std::size_t k = 1; k < intervals; ++k) {
    const auto& v = by_interval[k];
    if (v.size() < 2) continue;
    // Results per second between the interval's first and last arrival.
    rate.push_back(1e9 * static_cast<double>(v.size() - 1) / static_cast<double>(last[k] - first[k]));
    p50.push_back(percentile(v, 0.50));
    p99.push_back(percentile(v, 0.99));
    counted += v.size();
    fewest = std::min(fewest, v.size());
  }
  if (rate.empty()) throw std::runtime_error("run too short: no whole interval after the first");
  std::printf("  per-interval p99 ms:");
  for (const double v : p99) std::printf(" %.4g", v);
  std::printf("\n");
  std::printf("  latency samples: %zu in %zu intervals (fewest %zu, %zu beyond p99)\n", counted,
              rate.size(), fewest, fewest / 100);
  return {
      {"windows_per_s", "windows/s", median(rate)},
      {"decision_latency_p50_ms", "ms", median(p50)},
      {"decision_latency_p99_ms", "ms", median(p99)},
  };
}

/// The gated metrics. The neighbours' load on a shared host moves wall time
/// by more than any allowed bound, and CPU time by the drift of the CPU's
/// speed, so the two times are CPU times at the reference speed (each scaled
/// by kProbeRefS / the probe's time measured alongside): results per second
/// of serving CPU over the whole run, and the median set-up CPU time. Peak
/// resident memory growth needs no scaling.
std::vector<Metric> end_to_end(const RunStats& run, double setup_ref_s) {
  const double cpu_ref_s = run.cpu_s * kProbeRefS / run.probe_s;
  return {
      {"windows_per_cpu_s", "windows/cpu-s", static_cast<double>(run.delivered) / cpu_ref_s},
      {"setup_s", "s", setup_ref_s},
      {"peak_rss_mb", "MB", static_cast<double>(run.peak_rss_bytes) / (1024.0 * 1024.0)},
  };
}

void print_verdict(const char* label, const RunStats& run) {
  const double share = run.expected == 0 ? 1.0
                                         : static_cast<double>(run.failed()) /
                                               static_cast<double>(run.expected);
  std::printf(
      "oracle (%s): %s — %llu owed, %llu delivered, %llu missing, %llu extra, %llu differ, "
      "%llu chunks dropped; failed_share %s fraction\n",
      label, run.failed() == 0 && run.expected > 0 ? "PASS" : "FAIL",
      static_cast<unsigned long long>(run.expected), static_cast<unsigned long long>(run.delivered),
      static_cast<unsigned long long>(run.missing), static_cast<unsigned long long>(run.extra),
      static_cast<unsigned long long>(run.mismatched),
      static_cast<unsigned long long>(run.dropped_chunks), number(share).c_str());
}

int run(const Options& options) {
  std::filesystem::create_directories(options.out_dir);
  std::unique_ptr<WardWorkload> workload;
  if (options.workload == "paper-ward") workload = make_paper_ward(options);
  else if (options.workload == "telemetry-open") workload = make_telemetry_open(options);
  else throw std::invalid_argument("unknown --workload '" + options.workload + "'");

  std::printf("wardbench %s seed %llu, %g s, trace %d, plant %s %g us\n", workload->name(),
              static_cast<unsigned long long>(options.seed), options.seconds, options.trace ? 1 : 0,
              options.plant.c_str(), options.plant_us);
  std::printf("fingerprint: %s\n", fingerprint(options).c_str());
  const std::int64_t t0 = now_ns();
  workload->synthesize(options);
  std::printf("inputs and oracle: %.2f s (untimed)\n", 1e-9 * static_cast<double>(now_ns() - t0));
  std::fflush(stdout);

  if (!options.trace) {
    // Each set-up is scaled by the probe's time on the same thread just
    // before and after it, so drift between set-ups cancels too.
    std::vector<double> setups, setup_cpus, setup_walls;
    const auto set_up = [&](int reps) {
      for (int k = 0; k < reps; ++k) {
        const double before = probe_median_s(kSetupProbes);
        const RunStats setup = workload->execute(0.0, nullptr);
        const double probe = 0.5 * (before + probe_median_s(kSetupProbes));
        setups.push_back(setup.setup_s * kProbeRefS / probe);
        setup_cpus.push_back(setup.setup_s);
        setup_walls.push_back(setup.setup_wall_s);
      }
    };
    set_up(kSetupReps / 2 + 1);
    const RunStats run = workload->execute(options.seconds, nullptr);
    set_up(kSetupReps / 2);
    const auto print_list = [](const char* label, const std::vector<double>& values) {
      std::printf("%s", label);
      for (const double v : values) std::printf(" %.4g", v);
      std::printf("\n");
    };
    print_list("set-ups, wall s:", setup_walls);
    print_list("set-ups, CPU s:", setup_cpus);
    print_list("set-ups, CPU s at the reference speed:", setups);
    std::printf("%s: %.2f s measured, %.2f serving CPU s, probe %.4g us (reference %.4g us), %llu results\n",
                workload->name(), run.wall_s, run.cpu_s, 1e6 * run.probe_s, 1e6 * kProbeRefS,
                static_cast<unsigned long long>(run.delivered));
    std::printf("wall-clock metrics (not gated):\n");
    print_metrics(wall_metrics(run));
    std::printf("  %-36s %16s windows/cpu-s\n", "unscaled windows per CPU second",
                number(static_cast<double>(run.delivered) / run.cpu_s).c_str());
    const auto metrics = end_to_end(run, median(setups));
    std::printf("end-to-end metrics:\n");
    print_metrics(metrics);
    print_verdict("untraced", run);
    std::printf("%s\n", result_json(run.failed() == 0 && run.expected > 0, run.expected,
                                    run.failed(), metrics)
                            .c_str());
    return 0;
  }

  const RunStats untraced = workload->execute(options.seconds / 2.0, nullptr);
  print_verdict("untraced", untraced);
  Tracer tracer;
  const RunStats traced = workload->execute(options.seconds / 2.0, &tracer);
  print_verdict("traced", traced);
  auto metrics = layer_metrics(*workload, options, untraced, traced, tracer);
  std::printf("untraced half:\n");
  const auto wall = wall_metrics(untraced);
  metrics.insert(metrics.begin(), wall.begin(), wall.end());
  std::printf("per-layer metrics (%s):\n", workload->name());
  print_metrics(metrics);
  const std::uint64_t attempted = untraced.expected + traced.expected;
  const std::uint64_t failed = untraced.failed() + traced.failed();
  std::printf("%s\n",
              result_json(failed == 0 && untraced.expected > 0 && traced.expected > 0, attempted,
                          failed, metrics)
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wardbench: %s\n", e.what());
    return 2;
  }
}
