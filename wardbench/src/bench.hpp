// Shared declarations of the ward-serving benchmark.
//
// A workload synthesizes its ward from the seed, computes the expected
// decision stream of every stay with the single-threaded rt::StreamClassifier
// oracle (untimed), then sets up and drives the serving engine through its
// public API while a sink checks every delivered decision against that
// oracle. The traced run repeats this with spans recorded around the calls
// into each layer, and adds single-threaded layer passes over the same inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ecg/patient.hpp"
#include "features/segment_cache.hpp"
#include "rt/engine.hpp"
#include "rt/model_registry.hpp"
#include "rt/window_extractor.hpp"
#include "rt/workload.hpp"

namespace wb {

using namespace svt;

class Tracer;
struct RunStats;

std::int64_t now_ns();
double thread_cpu_s();
double process_cpu_s();

// ---------------------------------------------------------------------------
// Command line

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/wardbench";
  /// Planted slowdown for the self-check: "none", "noop" (a pass-through
  /// decorator Workload), "seizure-busy" (the decorator busy-waits plant_us
  /// per seizure extract call) or "sink-delay" (the result sink busy-waits
  /// plant_us per delivered batch).
  std::string plant = "none";
  double plant_us = 0.0;
};

void busy_wait_us(double us);
/// Spin (with a pause hint) until the steady clock reaches `deadline_ns`.
void spin_until(std::int64_t deadline_ns);

// ---------------------------------------------------------------------------
// Inputs and oracle

/// Seeded RNG for one named input stream, so adding a stream never shifts
/// the draws of another.
std::mt19937_64 input_rng(std::uint64_t seed, std::uint64_t stream);

struct Recording {
  std::vector<double> mv;
  std::vector<ecg::SeizureEvent> seizures;
};

/// One patient's ECG: a default-cohort profile perturbed from `rng`, with
/// `num_seizures` seizures placed at seeded times.
Recording synthesize_recording(std::size_t patient_index, double duration_s, double fs_hz,
                               int num_seizures, std::mt19937_64& rng);

/// Overwrite seeded stretches with electrode pops (rail-hitting spikes) and a
/// lead-off flat line (0 mV).
void add_artifacts(Recording& rec, double fs_hz, std::mt19937_64& rng);

using Expected = std::vector<rt::WindowResult>;

/// The single-threaded oracle's decision stream for one stay: `mv` pushed
/// in `chunk`-sample pieces, then end_stream.
Expected oracle_stream(std::vector<rt::ServableModel> models, const rt::StreamConfig& config,
                       std::span<const double> mv, std::size_t chunk);

/// Bit-exact comparison of everything but the patient id.
bool same_result(const rt::WindowResult& got, const rt::WindowResult& want);

/// Sample index whose arrival makes a window emittable: the chunk holding it
/// is the window's emitting chunk.
std::size_t emitting_sample(double start_s, const rt::StreamConfig& config, std::size_t lag);

// ---------------------------------------------------------------------------
// Delivery checking

/// One delivered result: when it arrived and its decision latency.
struct Sample {
  std::int64_t arrive_ns = 0;
  float latency_ms = 0.0f;
};

/// Per delivery key (a bed whose id is reused stay after stay, or one stay).
/// Sink calls for one patient are serial, so a Track needs no lock.
struct Track {
  const Expected* expected = nullptr;
  std::size_t arrivals = 0;
  std::size_t mismatched = 0;
  std::vector<Sample> samples;
};

/// Reserve `n` samples and touch them, so that the delivery log grows into
/// resident pages taken before the run and peak_rss_mb measures the engine.
void reserve_resident(std::vector<Sample>& samples, std::size_t n);

/// Emitting-chunk stamps of a bed, by (pass, window position). Written by the
/// generator, read by the sink; a ring of passes is enough because the
/// generator never runs whole passes ahead of delivery.
class StampRing {
 public:
  static constexpr std::size_t kPasses = 4;
  explicit StampRing(std::size_t positions) : positions_(positions), ns_(kPasses * positions) {}
  void set(std::size_t pass, std::size_t pos, std::int64_t ns) {
    ns_[(pass % kPasses) * positions_ + pos].store(ns, std::memory_order_relaxed);
  }
  std::int64_t get(std::size_t pass, std::size_t pos) const {
    return ns_[(pass % kPasses) * positions_ + pos].load(std::memory_order_relaxed);
  }

 private:
  std::size_t positions_;
  std::vector<std::atomic<std::int64_t>> ns_;
};

/// Delivery ledger of beds that replay one recording per pass under a reused
/// patient id: result c of bed b is oracle result c % n of pass c / n.
/// Latency runs from the stamp the generator gives the result's emitting
/// chunk: its due time (open loop) or the moment the generator began pushing
/// it (closed loop).
class PassLedger {
 public:
  /// `expected[b]` is bed b's oracle stream; each pass pushes `chunks[b]`
  /// chunks of `chunk` samples and then ends the stream. Each bed's delivery
  /// log is made resident for `capacity` results.
  PassLedger(const std::vector<Expected>& expected, const rt::StreamConfig& config,
             std::size_t lag, std::size_t chunk, const std::vector<std::size_t>& chunks,
             std::size_t capacity, bool traced);

  /// Generator side, around pushing chunk c of bed b (c == chunks[b]: the
  /// end_stream that releases the trailing windows).
  void began(std::size_t bed, std::size_t pass, std::size_t c, std::int64_t ns) {
    for (const std::uint32_t i : by_chunk_[bed][c]) began_[bed]->set(pass, i, ns);
  }
  void returned(std::size_t bed, std::size_t pass, std::size_t c, std::int64_t ns) {
    if (returned_.empty()) return;
    for (const std::uint32_t i : by_chunk_[bed][c]) returned_[bed]->set(pass, i, ns);
  }

  /// Sink side: one batch of bed b's results, all received at `arrive_ns`.
  void deliver(std::size_t bed, std::span<const rt::WindowResult> batch, std::int64_t arrive_ns,
               Tracer* tracer);

  /// Owed = passes[b] x oracle results of bed b.
  void finish(const std::vector<std::size_t>& passes, RunStats& stats) const;

 private:
  std::vector<Track> tracks_;
  std::vector<std::vector<std::vector<std::uint32_t>>> by_chunk_;
  std::vector<std::unique_ptr<StampRing>> began_;
  std::vector<std::unique_ptr<StampRing>> returned_;
};

// ---------------------------------------------------------------------------
// Resident memory

// ---------------------------------------------------------------------------
// CPU speed

/// A fixed unit of single-threaded work that shares no code with the engine:
/// a serial floating-point recurrence, a vectorizable multiply-add pass, a
/// chain of dependent loads over a 256 KiB table and strtod over 250 decimal
/// numbers. Returns the thread CPU time it took. A shared host's CPU speed drifts with its neighbours' load; the
/// probe's time measures that drift, so CPU times can be normalized by it.
double probe_unit_s();
/// The probe's CPU time on the reference host (a 4-vCPU Intel Xeon VM, gcc
/// 12, Release): a CPU time t measured while the probe reads p is reported
/// as t x kProbeRefS / p, the time it would have taken at the reference
/// speed.
inline constexpr double kProbeRefS = 110e-6;
/// Median probe time over `n` probes on the calling thread.
double probe_median_s(int n);

std::size_t resident_bytes();
/// Samples resident memory every few milliseconds until destroyed. With
/// `trim`, freed heap is first given back to the system, so that the memory
/// measured is taken afresh. A set-up-only pass does not trim: the page faults
/// after a trim made set-up CPU time vary by a third from run to run.
class RssSampler {
 public:
  explicit RssSampler(bool trim);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  /// Peak resident memory since construction, minus the resident memory at
  /// construction.
  std::size_t growth_bytes() const { return peak_.load() - baseline_; }
  /// CPU time the sampler thread has used, as of its latest sample.
  double cpu_s() const { return 1e-9 * static_cast<double>(cpu_ns_.load()); }

 private:
  std::size_t baseline_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::int64_t> cpu_ns_{0};
  std::thread thread_;
};

/// Speed probes taken on the engine's worker threads, by the decorator
/// Workload, during an untraced run: the CPU there is the CPU the windows
/// were served on.
class ProbeLog {
 public:
  ProbeLog() { values_.reserve(1 << 14); }
  void add(double probe_s, double spent_s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    values_.push_back(probe_s);
    spent_s_ += spent_s;
  }
  /// Median probe time.
  double median_s() const;
  /// CPU time spent probing, to be taken out of the serving CPU time.
  double spent_s() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spent_s_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;
  double spent_s_ = 0.0;
};

/// CPU time of the process less the RSS sampler's: the serving engine's
/// threads plus the generator's calls into it.
inline double serving_cpu_s(const RssSampler& rss) { return process_cpu_s() - rss.cpu_s(); }

// ---------------------------------------------------------------------------
// Tracing

enum class SpanKind : std::uint8_t {
  kPush,            ///< Generator: push_samples.
  kAdmit,           ///< Generator: first push of a stay.
  kInstall,         ///< ModelRegistry::install.
  kExtractSeizure,  ///< Decorator around the seizure workload's extract.
  kExtractAf,       ///< Decorator around the AF workload's extract.
  kSink,            ///< Benchmark sink handling one batch.
  kResult,          ///< One delivered result (instant; id = window key).
};
const char* span_name(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;  ///< Window key, substrate hash or stay key.
  std::uint32_t aux = 0;  ///< Workload id / sample count.
  SpanKind kind = SpanKind::kPush;
};

/// In-memory span recorder with one buffer per thread. Buffers are written
/// without locks and read only after every recording thread has ended.
class Tracer {
 public:
  struct Thread {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
    double cpu_s = 0.0;  ///< Thread CPU time at its latest extract call.
  };
  Thread& local();
  void record(SpanKind kind, std::int64_t start, std::int64_t end, std::uint64_t id = 0,
              std::uint32_t aux = 0) {
    local().spans.push_back({start, end, id, aux, kind});
  }
  const std::vector<std::unique_ptr<Thread>>& threads() const { return threads_; }

 private:
  static inline std::atomic<std::uint64_t> next_serial_{1};
  const std::uint64_t serial_ = next_serial_.fetch_add(1);
  std::mutex mutex_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

/// Key of one window on the wire or in a sink: delivery key and cursor.
inline std::uint64_t window_key(std::uint32_t key, std::uint32_t cursor) {
  return (static_cast<std::uint64_t>(key) << 32) | cursor;
}

/// Hash of a window's substrate (RR series and beat count): identifies the
/// window a decorator extract call served, without the patient id.
std::uint64_t substrate_hash(const rt::WindowSubstrate& substrate);

/// Decorator registered in StreamConfig::workloads: times (and optionally
/// slows) the wrapped in-tree workload, and with a ProbeLog runs a speed
/// probe every kProbeEvery-th call on a thread. With neither a tracer, a
/// busy wait nor a probe log it is the self-check's no-op decorator.
class TimedWorkload final : public rt::Workload {
 public:
  TimedWorkload(std::shared_ptr<const rt::Workload> inner, SpanKind kind, Tracer* tracer,
                double busy_us, ProbeLog* probes)
      : inner_(std::move(inner)), kind_(kind), tracer_(tracer), busy_us_(busy_us), probes_(probes) {}
  const char* name() const override { return inner_->name(); }
  std::size_t num_features() const override { return inner_->num_features(); }
  std::string feature_name(std::size_t i) const override { return inner_->feature_name(i); }
  void extract(const rt::WindowSubstrate& substrate, features::FeatureScratch& scratch,
               std::span<double> out) const override;

 private:
  std::shared_ptr<const rt::Workload> inner_;
  SpanKind kind_;
  Tracer* tracer_;
  double busy_us_;
  ProbeLog* probes_;
};

/// The workload list a serving engine gets: the seizure workload (in-tree
/// name "apnea") and optionally AF screening, decorated when tracing,
/// probing or when a slowdown is planted; the plain in-tree objects
/// otherwise.
std::vector<std::shared_ptr<const rt::Workload>> serving_workloads(bool with_af, Tracer* tracer,
                                                                   ProbeLog* probes,
                                                                   const Options& options);

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunStats {
  double setup_s = 0.0;           ///< Serving CPU time of set-up (see serving_cpu_s).
  double setup_wall_s = 0.0;      ///< Wall time of set-up.
  double wall_s = 0.0;            ///< First chunk accepted -> last result received.
  /// Serving CPU time over the same interval, less the CPU the open-loop
  /// generator spends waiting for due times.
  double cpu_s = 0.0;
  double probe_s = 0.0;           ///< Median probe_unit_s() over the same interval.
  double ecg_s = 0.0;            ///< ECG seconds offered.
  std::uint64_t delivered = 0;    ///< Results received.
  std::uint64_t expected = 0;     ///< Oracle results owed for what was pushed.
  std::uint64_t missing = 0;
  std::uint64_t extra = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t dropped_chunks = 0;
  std::uint64_t rejected_windows = 0;
  std::vector<Sample> samples;
  std::int64_t run_start_ns = 0;  ///< First chunk accepted.
  std::size_t peak_rss_bytes = 0;
  features::SegmentCacheStats cache;
  /// Generator-side samples: lateness against the schedule (open loop) or
  /// time between pushes (closed loop), ms.
  std::vector<float> gen_lag_ms;
  std::vector<double> install_us;
  double tailor_ms = 0.0;

  std::uint64_t failed() const { return missing + extra + mismatched + dropped_chunks; }
};

/// Merge per-track accounting into a RunStats.
void account_tracks(const std::vector<Track>& tracks, const std::vector<std::uint64_t>& owed,
                    RunStats& stats);

double percentile(std::vector<float> values, double q);
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Workloads

/// The per-window inputs the single-threaded layer passes replay.
struct LayerInputs {
  rt::StreamConfig config;  ///< Plain (undecorated) serving config.
  bool with_af = false;
  std::size_t chunk = 0;    ///< Samples per pushed chunk.
  /// Recordings in pack order: consecutive groups of LaneQrsDetector::kMaxLanes
  /// share a lane pack, as the engine's first-fit lane claim places them.
  std::vector<const Recording*> recordings;
  /// Seizure (and AF) model of each recording, same order.
  std::vector<std::vector<std::shared_ptr<const rt::ServableModel>>> models;
  std::vector<std::string> model_texts;  ///< Saved models (load pass).
};

class WardWorkload {
 public:
  virtual ~WardWorkload() = default;
  virtual const char* name() const = 0;
  /// Inputs and oracle from the seed (untimed).
  virtual void synthesize(const Options& options) = 0;
  /// Set up (timed into RunStats::setup_s), run for `seconds` (0 = set up
  /// only), fence, tear down. `tracer` is null for the untraced run.
  virtual RunStats execute(double seconds, Tracer* tracer) = 0;
  /// Whether the offered load is fixed by a schedule (open loop).
  virtual bool open_loop() const = 0;
  virtual LayerInputs layer_inputs() const = 0;
  /// Recording index (into LayerInputs::recordings) and oracle result index
  /// of the result a sink received as (key, cursor) in the last execute().
  virtual std::pair<std::size_t, std::size_t> locate(std::uint32_t key,
                                                     std::uint32_t cursor) const = 0;
};

std::unique_ptr<WardWorkload> make_paper_ward(const Options& options);
std::unique_ptr<WardWorkload> make_telemetry_open(const Options& options);

// ---------------------------------------------------------------------------
// Traced-run analysis (trace.cpp, layers.cpp)

/// Per-layer metrics from the traced run's spans plus the single-threaded
/// layer passes over the workload's inputs. Writes the Chrome trace file.
std::vector<Metric> layer_metrics(WardWorkload& workload, const Options& options,
                                  const RunStats& untraced, const RunStats& traced,
                                  const Tracer& tracer);

}  // namespace wb
