// telemetry-open: an open loop at a fixed offered rate. 48 beds stream 2 s
// chunks into 20 s windows with a 10 s stride; the seizure workload and AF
// screening both run, with the quality gate in annotate mode and electrode
// pops and lead-off flat lines in a quarter of the recordings. Patients are
// discharged (end_stream) and admitted under new ids on a seeded schedule;
// each admission first installs that patient's models, loaded from saved
// text in setup. Every chunk has a due time: bed b's slot s is due at
// origin + (s + b / beds) x period, whatever the engine is doing.
#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/sharded_classifier.hpp"

namespace wb {
namespace {

constexpr std::size_t kBeds = 48;
constexpr std::size_t kRecordings = 24;
constexpr double kChunkS = 2.0;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSeizureModels = 8;
constexpr std::size_t kAfModels = 4;
/// Offered load: ECG seconds per wall second, per bed. The engine sustains
/// about 3750x on a quiet 4-thread host; 1100x (about 30%) leaves headroom
/// for a host that slows by a third under its neighbours' load, where half of
/// capacity let the queue, and the latency tail, run away.
constexpr double kOfferedX = 1100.0;
/// Chunks queued per shard: a few rounds of all beds. When the host stalls,
/// the generator then blocks (and its lateness counts in the latency) instead
/// of the backlog growing peak_rss_mb by megabytes.
constexpr std::size_t kQueueCapacity = 64;

struct OracleEntry {
  Expected results;
  /// Result indices by emitting chunk; index `chunks` collects the windows
  /// the discharge (end_stream) releases.
  std::vector<std::vector<std::uint32_t>> by_chunk;
};

struct Stay {
  std::uint32_t bed = 0;
  std::uint32_t recording = 0;
  std::uint32_t chunks = 0;
  std::uint64_t first_slot = 0;
  const OracleEntry* oracle = nullptr;
};

class TelemetryOpen final : public WardWorkload {
 public:
  explicit TelemetryOpen(const Options& options) : options_(options) {
    config_.fs_hz = 250.0;
    config_.window_s = 20.0;
    config_.stride_s = 10.0;
    config_.workloads = {rt::apnea_workload(), rt::af_workload()};
    config_.quality.enable = true;
    config_.quality.policy = ecg::QualityPolicy::kAnnotate;
    chunk_ = static_cast<std::size_t>(kChunkS * config_.fs_hz);
  }

  const char* name() const override { return "telemetry-open"; }
  bool open_loop() const override { return true; }

  void synthesize(const Options& options) override {
    for (std::size_t r = 0; r < kRecordings; ++r) {
      auto rng = input_rng(options.seed, 200 + r);
      // Stays of 60 s .. 240 s, evenly spread, so every seed offers the
      // same mix of stay lengths (and so the same windows per chunk).
      const std::size_t chunks = 30 + r * 90 / (kRecordings - 1);
      Recording rec =
          synthesize_recording(r, static_cast<double>(chunks) * kChunkS, config_.fs_hz, 1, rng);
      if (r % 4 == 0) add_artifacts(rec, config_.fs_hz, rng);
      recordings_.push_back(std::move(rec));
    }
    for (std::size_t m = 0; m < kSeizureModels + kAfModels; ++m) {
      const std::uint64_t model_seed = options.seed * 1000 + m;
      const rt::ServableModel model = m < kSeizureModels ? rt::synthetic_full_feature_model(model_seed)
                                                         : rt::synthetic_af_model(model_seed);
      std::ostringstream text;
      model.save(text);
      model_texts_.push_back(text.str());
    }
    oracle_models_ = load_models();
    lag_ = rt::WindowExtractor(config_).emission_lag_samples();
  }

  RunStats execute(double seconds, Tracer* tracer) override {
    // The schedule, and the oracle of every stay it cuts short, are fixed
    // before set-up: the open loop never waits for the engine.
    const double period_ns = 1e9 * kChunkS / kOfferedX;
    const auto slots = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(1e9 * seconds / period_ns));
    std::vector<Stay> stays;
    std::vector<std::vector<std::uint32_t>> bed_stays(kBeds);
    for (std::uint32_t b = 0; b < kBeds; ++b) {
      // Each bed admits every recording once per cycle, in a seeded order.
      // All cycles are equally long, so the first stay is cut to a seeded
      // length: beds then start their cycles out of phase instead of
      // discharging and admitting in lockstep.
      auto rng = input_rng(options_.seed, 300 + b);
      std::vector<std::uint32_t> order(kRecordings);
      for (std::uint32_t r = 0; r < kRecordings; ++r) order[r] = r;
      for (std::uint64_t slot = 0, n = 0; slot < slots; ++n) {
        if (n % kRecordings == 0) std::shuffle(order.begin(), order.end(), rng);
        Stay s;
        s.bed = b;
        s.recording = order[n % kRecordings];
        std::size_t full = (recordings_[s.recording].mv.size() + chunk_ - 1) / chunk_;
        if (n == 0) full = 1 + rng() % full;
        s.chunks = static_cast<std::uint32_t>(std::min<std::uint64_t>(full, slots - slot));
        s.first_slot = slot;
        s.oracle = &oracle_for(s.recording, s.chunks);
        slot += s.chunks;
        bed_stays[b].push_back(static_cast<std::uint32_t>(stays.size()));
        stays.push_back(s);
      }
    }
    stay_recordings_.clear();
    for (const Stay& s : stays) stay_recordings_.push_back(s.recording);
    std::vector<Track> tracks(stays.size());
    std::vector<std::unique_ptr<std::atomic<std::int64_t>[]>> returned(tracer ? stays.size() : 0);
    for (std::size_t k = 0; k < stays.size(); ++k) {
      tracks[k].expected = &stays[k].oracle->results;
      reserve_resident(tracks[k].samples, stays[k].oracle->results.size());
      if (tracer) returned[k] = std::make_unique<std::atomic<std::int64_t>[]>(tracks[k].expected->size());
    }

    RunStats stats;
    RssSampler rss(seconds > 0.0);
    const std::int64_t setup_start = now_ns();
    const double setup_cpu_start = serving_cpu_s(rss);
    std::int64_t origin = 0;
    const auto models = load_models();
    auto registry = std::make_shared<rt::ModelRegistry>();
    rt::StreamConfig config = config_;
    ProbeLog probes;
    config.workloads = serving_workloads(true, tracer, tracer == nullptr ? &probes : nullptr, options_);
    rt::EngineOptions engine_options;
    engine_options.num_workers = kWorkers;
    engine_options.queue_capacity = kQueueCapacity;
    engine_options.backpressure = rt::BackpressurePolicy::kBlock;
    const bool delay = options_.plant == "sink-delay";
    engine_options.sink = [&](std::span<const rt::WindowResult> batch) {
      const std::int64_t arrive = now_ns();
      if (delay) busy_wait_us(options_.plant_us);
      const auto pid = static_cast<std::size_t>(batch.front().patient_id);
      Track& t = tracks[pid];
      const Stay& s = stays[pid];
      for (const rt::WindowResult& r : batch) {
        const std::size_t i = t.arrivals++;
        if (i >= t.expected->size()) continue;
        const rt::WindowResult& want = (*t.expected)[i];
        if (!same_result(r, want)) ++t.mismatched;
        const std::size_t k = std::min<std::size_t>(
            emitting_sample(want.start_s, config_, lag_) / chunk_, s.chunks - 1);
        const double due = static_cast<double>(origin) +
                           (static_cast<double>(s.first_slot + k) + static_cast<double>(s.bed) / kBeds) * period_ns;
        t.samples.push_back({arrive, static_cast<float>(1e-6 * (static_cast<double>(arrive) - due))});
        if (tracer)
          tracer->record(SpanKind::kResult, returned[pid][i].load(std::memory_order_relaxed), arrive,
                         window_key(static_cast<std::uint32_t>(pid), static_cast<std::uint32_t>(i)),
                         r.workload);
      }
      if (tracer) tracer->record(SpanKind::kSink, arrive, now_ns(), 0, batch.size());
    };
    rt::ShardedStreamClassifier engine(registry, config, std::move(engine_options));

    std::vector<std::size_t> cursor(kBeds, 0);  // Current stay per bed.
    double cpu_start = 0.0;
    auto event = [&](std::uint64_t slot, std::uint32_t b, std::int64_t due) {
      while (stays[bed_stays[b][cursor[b]]].first_slot + stays[bed_stays[b][cursor[b]]].chunks <= slot)
        ++cursor[b];
      const std::uint32_t id = bed_stays[b][cursor[b]];
      const Stay& s = stays[id];
      const auto k = static_cast<std::uint32_t>(slot - s.first_slot);
      const std::int64_t t0 = now_ns();
      if (k == 0) {
        // Admission: the patient's models first, then the first chunk.
        const std::size_t r = s.recording;
        for (std::uint32_t w = 0; w < 2; ++w) {
          const std::int64_t i0 = now_ns();
          registry->install(w, static_cast<int>(id),
                            models[w == 0 ? r % kSeizureModels : kSeizureModels + r % kAfModels]);
          const std::int64_t i1 = now_ns();
          stats.install_us.push_back(1e-3 * static_cast<double>(i1 - i0));
          if (tracer) tracer->record(SpanKind::kInstall, i0, i1, id);
        }
      }
      const auto& mv = recordings_[s.recording].mv;
      const std::size_t off = static_cast<std::size_t>(k) * chunk_;
      engine.push_samples(static_cast<int>(id),
                          std::span(mv).subspan(off, std::min(chunk_, mv.size() - off)));
      stats.ecg_s += kChunkS;
      const std::int64_t t1 = now_ns();
      if (tracer) {
        for (const std::uint32_t i : s.oracle->by_chunk[k]) returned[id][i].store(t1, std::memory_order_relaxed);
        tracer->record(k == 0 ? SpanKind::kAdmit : SpanKind::kPush, t0, t1, id, chunk_);
        if (origin != 0) stats.gen_lag_ms.push_back(static_cast<float>(1e-6 * static_cast<double>(t0 - due)));
      }
      if (k + 1 == s.chunks) {
        engine.end_stream(static_cast<int>(id));
        if (tracer)
          for (const std::uint32_t i : s.oracle->by_chunk[s.chunks])
            returned[id][i].store(now_ns(), std::memory_order_relaxed);
      }
      return t1;
    };

    // Set-up ends when the schedule's first chunk (slot 0, bed 0) is
    // accepted; that moment is the schedule's origin.
    origin = event(0, 0, 0);
    cpu_start = serving_cpu_s(rss);
    stats.setup_s = cpu_start - setup_cpu_start;
    stats.setup_wall_s = 1e-9 * static_cast<double>(origin - setup_start);
    stats.run_start_ns = origin;
    double wait_cpu_s = 0.0;  // Generator CPU spent waiting for due times.
    if (seconds > 0.0) {
      for (std::uint64_t slot = 0; slot < slots; ++slot)
        for (std::uint32_t b = slot == 0 ? 1 : 0; b < kBeds; ++b) {
          const auto due = static_cast<std::int64_t>(
              static_cast<double>(origin) + (static_cast<double>(slot) + static_cast<double>(b) / kBeds) * period_ns);
          const double w0 = thread_cpu_s();
          const std::int64_t ahead = due - now_ns();
          if (ahead > 300000) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - 200000));
          spin_until(due);
          wait_cpu_s += thread_cpu_s() - w0;
          event(slot, b, due);
        }
    } else {
      engine.end_stream(static_cast<int>(bed_stays[0][0]));
    }
    engine.flush();
    if (seconds <= 0.0) return stats;
    stats.wall_s = 1e-9 * static_cast<double>(now_ns() - origin);
    stats.cpu_s = serving_cpu_s(rss) - cpu_start - wait_cpu_s - probes.spent_s();
    stats.probe_s = probes.median_s();
    stats.peak_rss_bytes = rss.growth_bytes();
    const rt::EngineStats engine_stats = engine.stats();
    stats.dropped_chunks = engine_stats.dropped_chunks;
    stats.rejected_windows = engine_stats.rejected_windows;
    stats.cache = engine.cache_stats();
    std::vector<std::uint64_t> owed;
    for (const Stay& s : stays) owed.push_back(s.oracle->results.size());
    account_tracks(tracks, owed, stats);
    return stats;
  }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    in.config = config_;
    in.with_af = true;
    in.chunk = chunk_;
    for (std::size_t r = 0; r < kRecordings; ++r) {
      in.recordings.push_back(&recordings_[r]);
      in.models.push_back({oracle_models_[r % kSeizureModels],
                           oracle_models_[kSeizureModels + r % kAfModels]});
    }
    in.model_texts = model_texts_;
    return in;
  }

  std::pair<std::size_t, std::size_t> locate(std::uint32_t key,
                                             std::uint32_t cursor) const override {
    return {stay_recordings_[key], cursor};
  }

 private:
  std::vector<std::shared_ptr<const rt::ServableModel>> load_models() const {
    std::vector<std::shared_ptr<const rt::ServableModel>> models;
    for (const std::string& text : model_texts_) {
      std::istringstream is(text);
      models.push_back(std::make_shared<const rt::ServableModel>(rt::ServableModel::load(is)));
    }
    return models;
  }

  const OracleEntry& oracle_for(std::uint32_t recording, std::uint32_t chunks) {
    auto [it, fresh] = oracles_.try_emplace({recording, chunks});
    if (fresh) {
      const std::size_t r = recording;
      const auto& mv = recordings_[r].mv;
      const std::size_t n = std::min(mv.size(), static_cast<std::size_t>(chunks) * chunk_);
      it->second.results = oracle_stream({*oracle_models_[r % kSeizureModels],
                                          *oracle_models_[kSeizureModels + r % kAfModels]},
                                         config_, std::span(mv).first(n), chunk_);
      it->second.by_chunk.resize(chunks + 1);
      for (std::size_t i = 0; i < it->second.results.size(); ++i) {
        const std::size_t c = emitting_sample(it->second.results[i].start_s, config_, lag_) / chunk_;
        it->second.by_chunk[std::min<std::size_t>(c, chunks)].push_back(static_cast<std::uint32_t>(i));
      }
    }
    return it->second;
  }

  Options options_;
  rt::StreamConfig config_;
  std::size_t chunk_ = 0;
  std::size_t lag_ = 0;
  std::vector<Recording> recordings_;
  std::vector<std::string> model_texts_;
  std::vector<std::shared_ptr<const rt::ServableModel>> oracle_models_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, OracleEntry> oracles_;
  std::vector<std::size_t> stay_recordings_;  ///< Of the last execute(), by stay id.
};

}  // namespace

std::unique_ptr<WardWorkload> make_telemetry_open(const Options& options) {
  return std::make_unique<TelemetryOpen>(options);
}

}  // namespace wb
