// Inputs, oracle, delivery checking, resident memory and span recording.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "ecg/ecg_synth.hpp"
#include "rt/stream_classifier.hpp"

namespace wb {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

void spin_until(std::int64_t deadline_ns) {
  while (now_ns() < deadline_ns) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

void busy_wait_us(double us) {
  if (us > 0.0) spin_until(now_ns() + static_cast<std::int64_t>(us * 1e3));
}

std::mt19937_64 input_rng(std::uint64_t seed, std::uint64_t stream) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream), static_cast<std::uint32_t>(stream >> 32)};
  return std::mt19937_64(seq);
}

Recording synthesize_recording(std::size_t patient_index, double duration_s, double fs_hz,
                               int num_seizures, std::mt19937_64& rng) {
  static const std::vector<ecg::PatientProfile> cohort = ecg::make_default_cohort();
  ecg::PatientProfile profile = cohort[patient_index % cohort.size()];
  std::uniform_real_distribution<double> jitter(0.93, 1.07);
  profile.baseline_hr_bpm *= jitter(rng);
  profile.hf_amplitude_bpm *= jitter(rng);
  profile.resp_rate_hz *= jitter(rng);
  profile.ictal_hr_delta_bpm *= jitter(rng);

  ecg::SessionEvents events;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int k = 0; k < num_seizures; ++k) {
    // One seizure per equal slot, away from the slot edges.
    const double slot = duration_s / num_seizures;
    ecg::SeizureEvent seizure;
    seizure.duration_s = 60.0 + 60.0 * unit(rng);
    seizure.onset_s = slot * k + (slot - seizure.duration_s) * (0.1 + 0.8 * unit(rng));
    seizure.intensity = 0.7 + 0.5 * unit(rng);
    events.seizures.push_back(seizure);
  }
  ecg::SessionSignalParams session;
  session.duration_s = duration_s;
  ecg::EcgSynthParams synth;
  synth.fs_hz = fs_hz;
  Recording rec;
  rec.mv = ecg::synthesize_session(profile, events, session, synth, rng).samples_mv;
  rec.seizures = events.seizures;
  return rec;
}

void add_artifacts(Recording& rec, double fs_hz, std::mt19937_64& rng) {
  const std::size_t n = rec.mv.size();
  std::uniform_int_distribution<std::size_t> where(0, n > 1 ? n - 1 : 0);
  // Electrode pops: a rail-hitting step that decays over ~0.2 s.
  for (int k = 0; k < 3; ++k) {
    const std::size_t at = where(rng);
    const double height = (k % 2 == 0 ? 1.0 : -1.0) * 6.0;
    const auto len = static_cast<std::size_t>(0.2 * fs_hz);
    for (std::size_t i = 0; i < len && at + i < n; ++i)
      rec.mv[at + i] += height * std::exp(-static_cast<double>(i) / (0.05 * fs_hz));
  }
  // Lead off: the disconnected electrode reads 0 mV for 3 s.
  const std::size_t at = where(rng);
  const auto len = static_cast<std::size_t>(3.0 * fs_hz);
  for (std::size_t i = 0; i < len && at + i < n; ++i) rec.mv[at + i] = 0.0;
}

Expected oracle_stream(std::vector<rt::ServableModel> models, const rt::StreamConfig& config,
                       std::span<const double> mv, std::size_t chunk) {
  rt::StreamClassifier oracle(std::move(models), config);
  for (std::size_t off = 0; off < mv.size(); off += chunk)
    oracle.push_samples(0, mv.subspan(off, std::min(chunk, mv.size() - off)));
  oracle.end_stream(0);
  return oracle.flush();
}

bool same_result(const rt::WindowResult& got, const rt::WindowResult& want) {
  return std::memcmp(&got.start_s, &want.start_s, sizeof(double)) == 0 &&
         std::memcmp(&got.decision_value, &want.decision_value, sizeof(double)) == 0 &&
         got.label == want.label && got.num_beats == want.num_beats &&
         got.workload == want.workload && got.quality == want.quality;
}

std::size_t emitting_sample(double start_s, const rt::StreamConfig& config, std::size_t lag) {
  const auto start = static_cast<std::size_t>(std::llround(start_s * config.fs_hz));
  const auto window = static_cast<std::size_t>(std::llround(config.window_s * config.fs_hz));
  return start + window + lag - 1;
}

void reserve_resident(std::vector<Sample>& samples, std::size_t n) {
  samples.resize(n);  // Value-initialized: every page is written once.
  samples.clear();    // Keeps the capacity.
}

void account_tracks(const std::vector<Track>& tracks, const std::vector<std::uint64_t>& owed,
                    RunStats& stats) {
  for (std::size_t k = 0; k < tracks.size(); ++k) {
    const Track& t = tracks[k];
    stats.delivered += t.arrivals;
    stats.expected += owed[k];
    stats.mismatched += t.mismatched;
    if (t.arrivals < owed[k]) stats.missing += owed[k] - t.arrivals;
    if (t.arrivals > owed[k]) stats.extra += t.arrivals - owed[k];
    stats.samples.insert(stats.samples.end(), t.samples.begin(), t.samples.end());
  }
}

PassLedger::PassLedger(const std::vector<Expected>& expected, const rt::StreamConfig& config,
                       std::size_t lag, std::size_t chunk, const std::vector<std::size_t>& chunks,
                       std::size_t capacity, bool traced)
    : tracks_(expected.size()), by_chunk_(expected.size()) {
  for (std::size_t b = 0; b < expected.size(); ++b) {
    tracks_[b].expected = &expected[b];
    reserve_resident(tracks_[b].samples, capacity);
    by_chunk_[b].resize(chunks[b] + 1);
    for (std::size_t i = 0; i < expected[b].size(); ++i) {
      const std::size_t c = emitting_sample(expected[b][i].start_s, config, lag) / chunk;
      by_chunk_[b][std::min(c, chunks[b])].push_back(static_cast<std::uint32_t>(i));
    }
    began_.push_back(std::make_unique<StampRing>(expected[b].size()));
    if (traced) returned_.push_back(std::make_unique<StampRing>(expected[b].size()));
  }
}

void PassLedger::deliver(std::size_t bed, std::span<const rt::WindowResult> batch,
                         std::int64_t arrive_ns, Tracer* tracer) {
  Track& t = tracks_[bed];
  const std::size_t n = t.expected->size();
  for (const rt::WindowResult& r : batch) {
    const std::size_t c = t.arrivals++;
    const std::size_t pass = c / n;
    const std::size_t i = c % n;
    if (!same_result(r, (*t.expected)[i])) ++t.mismatched;
    t.samples.push_back(
        {arrive_ns, static_cast<float>(1e-6 * static_cast<double>(arrive_ns - began_[bed]->get(pass, i)))});
    if (tracer != nullptr)
      tracer->record(SpanKind::kResult, returned_[bed]->get(pass, i), arrive_ns,
                     window_key(static_cast<std::uint32_t>(bed), static_cast<std::uint32_t>(c)),
                     r.workload);
  }
}

void PassLedger::finish(const std::vector<std::size_t>& passes, RunStats& stats) const {
  std::vector<std::uint64_t> owed;
  for (std::size_t b = 0; b < tracks_.size(); ++b)
    owed.push_back(passes[b] * tracks_[b].expected->size());
  account_tracks(tracks_, owed, stats);
}

namespace {
template <typename T>
double percentile_impl(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at or below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)]);
}
}  // namespace

double percentile(std::vector<float> values, double q) { return percentile_impl(std::move(values), q); }
double percentile(std::vector<double> values, double q) { return percentile_impl(std::move(values), q); }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Resident memory --------------------------------------------------------

std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// --- CPU speed ----------------------------------------------------------------

namespace {
volatile double probe_sink = 0.0;
/// Worker-thread probing: every kProbeEvery-th extract call on a thread runs
/// one probe to warm the caches and then kProbeReps timed ones.
constexpr std::uint32_t kProbeEvery = 128;
constexpr int kProbeReps = 3;
}  // namespace

double probe_unit_s() {
  // The read-only table is shared, and built by the first probe (on the main
  // thread, before any resident-memory baseline).
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1 << 16);
    std::mt19937 rng(12345);
    for (auto& x : t) x = rng() & 0xFFFF;
    return t;
  }();
  // Decimal numbers as a saved model holds them, for the branchy part.
  static const std::string text = [] {
    std::string t;
    std::mt19937 rng(54321);
    std::uniform_real_distribution<double> value(-1e3, 1e3);
    char number[32];
    for (int i = 0; i < 250; ++i) {
      std::snprintf(number, sizeof number, " %.17g", value(rng));
      t += number;
    }
    return t;
  }();
  thread_local std::vector<double> buf(4096, 1.0);
  const double t0 = thread_cpu_s();
  double y = 0.0, z = 1.0;
  for (int i = 0; i < 3000; ++i) {
    y = 0.999 * y + 0.5 * z;
    z = 0.25 * y - 0.75 * z + 1.0;
  }
  for (int r = 0; r < 2; ++r)
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = buf[i] * 0.999 + 1e-3 * static_cast<double>(i);
  std::uint32_t k = 0;
  for (std::uint32_t i = 0; i < 3000; ++i) k = table[(k + i) & 0xFFFF];
  double parsed = 0.0;
  for (const char* p = text.c_str(); *p != '\0';) {
    char* end = nullptr;
    parsed += std::strtod(p, &end);
    p = end;
  }
  probe_sink = probe_sink + y + buf[k & 4095] + k + parsed;
  return thread_cpu_s() - t0;
}

double probe_median_s(int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(probe_unit_s());
  return median(std::move(v));
}

// --- Resident memory --------------------------------------------------------

RssSampler::RssSampler(bool trim) {
  // Give freed input-synthesis and oracle memory back first, so the engine's
  // allocations are measured rather than served from a warm heap.
  if (trim) malloc_trim(0);
  baseline_ = resident_bytes();
  peak_ = baseline_;
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const std::size_t now = resident_bytes();
      std::size_t seen = peak_.load();
      while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
      }
      cpu_ns_.store(static_cast<std::int64_t>(1e9 * thread_cpu_s()));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

RssSampler::~RssSampler() {
  stop_ = true;
  thread_.join();
}

// --- Tracing ----------------------------------------------------------------

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPush: return "push";
    case SpanKind::kAdmit: return "admit";
    case SpanKind::kInstall: return "install";
    case SpanKind::kExtractSeizure: return "features.seizure";
    case SpanKind::kExtractAf: return "features.af";
    case SpanKind::kSink: return "sink";
    case SpanKind::kResult: return "result";
  }
  return "?";
}

Tracer::Thread& Tracer::local() {
  // One buffer per (tracer, thread): a thread that outlives a tracer (the
  // generator) starts a fresh buffer under the next one.
  // Keyed by a serial, not the address: a later tracer may reuse the address.
  thread_local std::uint64_t owner = 0;
  thread_local Thread* buffer = nullptr;
  if (owner != serial_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<Thread>());
    threads_.back()->tid = static_cast<std::uint32_t>(threads_.size());
    threads_.back()->spans.reserve(1 << 16);
    buffer = threads_.back().get();
    owner = serial_;
  }
  return *buffer;
}

std::uint64_t substrate_hash(const rt::WindowSubstrate& substrate) {
  std::uint64_t h = 1469598103934665603ull ^ substrate.num_beats;
  auto mix = [&h](std::span<const double> values) {
    for (const double v : values) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h = (h ^ bits) * 1099511628211ull;
    }
  };
  mix(substrate.rr_s);
  mix(substrate.edr.first(std::min<std::size_t>(substrate.edr.size(), 8)));
  return h;
}

void TimedWorkload::extract(const rt::WindowSubstrate& substrate,
                            features::FeatureScratch& scratch, std::span<double> out) const {
  const std::int64_t start = now_ns();
  inner_->extract(substrate, scratch, out);
  if (busy_us_ > 0.0) busy_wait_us(busy_us_);
  if (tracer_ != nullptr) {
    const std::int64_t end = now_ns();
    Tracer::Thread& t = tracer_->local();
    t.spans.push_back({start, end, substrate_hash(substrate), 0, kind_});
    t.cpu_s = thread_cpu_s();
  }
  if (probes_ != nullptr) {
    thread_local std::uint32_t calls = 0;
    if (++calls % kProbeEvery == 0) {
      const double t0 = thread_cpu_s();
      probe_unit_s();  // Brings the probe's data back into the caches.
      const double probe = probe_median_s(kProbeReps);
      probes_->add(probe, thread_cpu_s() - t0);
    }
  }
}

double ProbeLog::median_s() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return median(values_);
}

std::vector<std::shared_ptr<const rt::Workload>> serving_workloads(bool with_af, Tracer* tracer,
                                                                   ProbeLog* probes,
                                                                   const Options& options) {
  std::vector<std::shared_ptr<const rt::Workload>> list{rt::apnea_workload()};
  if (with_af) list.push_back(rt::af_workload());
  const bool decorate = tracer != nullptr || probes != nullptr || options.plant == "noop" ||
                        options.plant == "seizure-busy";
  if (!decorate) return list;
  const double busy = options.plant == "seizure-busy" ? options.plant_us : 0.0;
  list[0] = std::make_shared<TimedWorkload>(list[0], SpanKind::kExtractSeizure, tracer, busy, probes);
  if (with_af)
    list[1] = std::make_shared<TimedWorkload>(list[1], SpanKind::kExtractAf, tracer, 0.0, probes);
  return list;
}

}  // namespace wb
