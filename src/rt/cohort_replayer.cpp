#include "rt/cohort_replayer.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/quantize.hpp"
#include "features/af_features.hpp"
#include "features/feature_types.hpp"
#include "io/wfdb.hpp"
#include "svm/kernel.hpp"

namespace svt::rt {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

// The replayer always wraps the user's sink with its counting sink: the
// options handed to the engine carry the wrapper, and the user's sink is
// kept aside in user_sink_ (initialised first — declaration order — so the
// wrapper may capture it).
CohortReplayer::CohortReplayer(std::shared_ptr<ModelRegistry> registry, StreamConfig config,
                               EngineOptions options)
    : user_sink_(std::exchange(options.sink, {})),
      engine_(std::move(registry), config,
              [&options, this]() -> EngineOptions {
                options.sink = [this](std::span<const WindowResult> batch) {
                  if (!batch.empty()) {
                    const std::lock_guard<std::mutex> lock(windows_mutex_);
                    windows_per_patient_[batch.front().patient_id] += batch.size();
                  }
                  if (user_sink_) user_sink_(batch);
                };
                return std::move(options);
              }()) {}

int CohortReplayer::patient_id_of(const std::string& record_name) {
  std::size_t begin = record_name.size();
  while (begin > 0 && std::isdigit(static_cast<unsigned char>(record_name[begin - 1]))) --begin;
  if (begin == record_name.size())
    throw std::invalid_argument("record name '" + record_name +
                                "' carries no trailing record number");
  errno = 0;
  const long value = std::strtol(record_name.c_str() + begin, nullptr, 10);
  if (errno == ERANGE || value > std::numeric_limits<int>::max())
    throw std::invalid_argument("record name '" + record_name +
                                "': trailing record number does not fit a patient id");
  return static_cast<int>(value);
}

ReplayReport CohortReplayer::replay_directory(const std::string& dir,
                                              const ReplayOptions& options) {
  return replay_records(dir, io::read_records_index(dir), options);
}

ReplayReport CohortReplayer::replay_records(const std::string& dir,
                                            const std::vector<std::string>& names,
                                            const ReplayOptions& options) {
  const double fs = engine_.config().fs_hz;
  // A NaN fails each condition. The chunk is a sample count, so it must
  // also convert to an integer exactly.
  if (!(std::isfinite(options.chunk_s) && options.chunk_s > 0.0))
    throw std::invalid_argument("replay: chunk_s must be finite and > 0");
  if (options.chunk_s * fs > 0x1p53)
    throw std::invalid_argument("replay: chunk_s * fs_hz exceeds 2^53 samples");
  if (!(std::isfinite(options.speed) && options.speed >= 0.0))
    throw std::invalid_argument("replay: speed must be finite and >= 0");

  // Decode the whole cohort up front: replay should measure the *pipeline*,
  // not disk reads, and a corrupt record must fail before any sample flows.
  struct LoadedRecord {
    std::string name;
    int patient_id = 0;
    std::vector<double> samples_mv;
    std::string skip_reason;  ///< Non-empty: report, don't stream.
  };
  std::vector<LoadedRecord> cohort;
  std::set<int> patient_ids;
  for (const auto& name : names) {
    const auto record = io::read_record(dir, name);
    LoadedRecord loaded;
    loaded.name = name;
    loaded.patient_id = patient_id_of(name);
    if (record.header.fs_hz != fs) {
      // One mis-recorded monitor must not abort the ward: skip the record
      // with a per-record reason instead of throwing.
      loaded.skip_reason = "sampled at " + std::to_string(record.header.fs_hz) +
                           " Hz, engine expects " + std::to_string(fs);
      cohort.push_back(std::move(loaded));
      continue;
    }
    if (!patient_ids.insert(loaded.patient_id).second)
      throw std::invalid_argument("replay: duplicate patient id " +
                                  std::to_string(loaded.patient_id) +
                                  " (concurrent records must be distinct patients)");
    loaded.samples_mv = record.signal_mv(io::ecg_channel(record.header));
    cohort.push_back(std::move(loaded));
  }

  {
    const std::lock_guard<std::mutex> lock(windows_mutex_);
    windows_per_patient_.clear();
  }
  const features::SegmentCacheStats cache_before = engine_.stats().cache;
  const std::size_t chunk =
      std::max<std::size_t>(1, static_cast<std::size_t>(options.chunk_s * fs));

  // Round-robin admission: every record streams concurrently, one chunk per
  // record per round (the telemetry-gateway arrival pattern the benches and
  // examples use).
  std::vector<std::size_t> offsets(cohort.size(), 0);
  std::vector<Clock::time_point> admitted_at(cohort.size());
  const auto t0 = Clock::now();
  bool any_left = !cohort.empty();
  while (any_left) {
    any_left = false;
    for (std::size_t r = 0; r < cohort.size(); ++r) {
      const auto& record = cohort[r];
      std::size_t& offset = offsets[r];
      if (offset >= record.samples_mv.size()) continue;
      if (options.speed > 0.0) {
        const double stream_t = static_cast<double>(offset) / fs;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(stream_t / options.speed)));
      }
      const std::size_t n = std::min(chunk, record.samples_mv.size() - offset);
      engine_.push_samples(record.patient_id, std::span(record.samples_mv).subspan(offset, n));
      offset += n;
      if (offset < record.samples_mv.size()) {
        any_left = true;
      } else {
        // Record end: flush the detector tail so the trailing windows the
        // live path holds back are classified and delivered too.
        engine_.end_stream(record.patient_id);
        admitted_at[r] = Clock::now();
      }
    }
  }
  engine_.flush();  // Terminal fence: every chunk extracted, classified, delivered.
  const auto t_end = Clock::now();

  ReplayReport report;
  report.wall_s = seconds_since(t0, t_end);
  report.cache = engine_.stats().cache - cache_before;  // Exact: fenced above.
  const std::lock_guard<std::mutex> lock(windows_mutex_);
  for (std::size_t r = 0; r < cohort.size(); ++r) {
    RecordReplayStats stats;
    stats.record = cohort[r].name;
    stats.patient_id = cohort[r].patient_id;
    if (!cohort[r].skip_reason.empty()) {
      stats.skipped = true;
      stats.skip_reason = cohort[r].skip_reason;
      ++report.skipped_records;
      report.records.push_back(std::move(stats));
      continue;
    }
    stats.samples = cohort[r].samples_mv.size();
    stats.duration_s = static_cast<double>(stats.samples) / fs;
    stats.wall_s = seconds_since(t0, admitted_at[r]);
    stats.x_realtime = stats.wall_s > 0.0 ? stats.duration_s / stats.wall_s : 0.0;
    const auto it = windows_per_patient_.find(stats.patient_id);
    stats.windows = it == windows_per_patient_.end() ? 0 : it->second;
    report.total_duration_s += stats.duration_s;
    report.windows += stats.windows;
    report.records.push_back(std::move(stats));
  }
  report.x_realtime = report.wall_s > 0.0 ? report.total_duration_s / report.wall_s : 0.0;
  return report;
}

namespace {

/// Shared builder for the synthetic serving models: identity selection over
/// `nfeat` raw features, seeded z-score scaler, random quantised quadratic
/// SVM with `num_svs` support vectors.
ServableModel synthetic_model(std::size_t nfeat, std::size_t num_svs, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> sv_dist(-2.0, 2.0);
  std::uniform_real_distribution<double> alpha_dist(-1.0, 1.0);
  svm::SvmModel model;
  model.kernel = svm::quadratic_kernel();
  model.support_vectors.resize(num_svs, std::vector<double>(nfeat));
  model.alpha_y.resize(num_svs);
  for (std::size_t i = 0; i < num_svs; ++i) {
    for (auto& v : model.support_vectors[i]) v = sv_dist(rng);
    model.alpha_y[i] = alpha_dist(rng);
  }
  model.bias = -0.25;

  std::vector<std::size_t> selected(nfeat);
  for (std::size_t j = 0; j < nfeat; ++j) selected[j] = j;
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<std::vector<double>> fit_rows(16, std::vector<double>(nfeat));
  for (auto& row : fit_rows)
    for (auto& v : row) v = gauss(rng);
  svm::StandardScaler scaler;
  scaler.fit(fit_rows);
  auto quantized = core::QuantizedModel::build(model, core::QuantConfig{});
  return ServableModel(std::move(selected), std::move(scaler), std::move(model),
                       std::move(quantized));
}

}  // namespace

ServableModel synthetic_full_feature_model(std::uint64_t seed) {
  // 68 support vectors: the paper's tailored SV budget. The RNG draw
  // sequence matches the historical inline builder, so the replay golden
  // file is unchanged by the refactor.
  return synthetic_model(features::kNumFeatures, 68, seed);
}

ServableModel synthetic_af_model(std::uint64_t seed) {
  return synthetic_model(features::kNumAfFeatures, 16, seed);
}

}  // namespace svt::rt
