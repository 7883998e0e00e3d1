#include "rt/sharded_classifier.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace svt::rt {

ShardedStreamClassifier::ShardedStreamClassifier(std::shared_ptr<ModelRegistry> registry,
                                                 StreamConfig config, EngineOptions options)
    : registry_(std::move(registry)), config_(config), options_(std::move(options)) {
  if (!registry_)
    throw std::invalid_argument("ShardedStreamClassifier: null model registry");
  if (options_.queue_capacity == 0)
    throw std::invalid_argument("ShardedStreamClassifier: queue_capacity must be > 0");
  if (!options_.sink) throw std::invalid_argument("ShardedStreamClassifier: empty result sink");
  const std::size_t n = std::max<std::size_t>(options_.num_workers, 1);
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s)
    shards_.push_back(std::make_unique<Shard>(config, options_));  // Validates config per shard.
  for (auto& shard : shards_) {
    Shard& mine = *shard;
    mine.worker = std::thread([this, &mine] { worker_loop(mine); });
  }
}

ShardedStreamClassifier::ShardedStreamClassifier(const core::TailoredDetector& detector,
                                                 StreamConfig config, EngineOptions options)
    : ShardedStreamClassifier(
          std::make_shared<ModelRegistry>(ServableModel::from_detector(detector)), config,
          std::move(options)) {}

ShardedStreamClassifier::~ShardedStreamClassifier() {
  for (auto& shard : shards_) shard->tasks.close();
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

void ShardedStreamClassifier::push_samples(int patient_id,
                                           std::span<const double> samples_mv) {
  Shard& home = *shards_[shard_of(patient_id)];
  Task task;
  task.patient_id = patient_id;
  {
    // Reuse a drained chunk's buffer (worker returns them after each round):
    // the steady-state ingest path re-copies into the same cache-warm pages
    // instead of allocating fresh cold ones.
    const std::lock_guard<std::mutex> lock(home.pool_mutex);
    if (!home.sample_pool.empty()) {
      task.samples = std::move(home.sample_pool.back());
      home.sample_pool.pop_back();
    }
  }
  task.samples.assign(samples_mv.begin(), samples_mv.end());
  home.tasks.push(std::move(task));
}

void ShardedStreamClassifier::evict_patient(int patient_id) {
  Task task;
  task.patient_id = patient_id;
  task.evict = true;
  // Control push: an eviction must reach the worker even when producers have
  // the queue saturated.
  shards_[shard_of(patient_id)]->tasks.push_control(std::move(task));
}

void ShardedStreamClassifier::end_stream(int patient_id) {
  Task task;
  task.patient_id = patient_id;
  task.end_stream = true;
  // Control push, like evictions: the end of a stream must not wait behind
  // producers.
  shards_[shard_of(patient_id)]->tasks.push_control(std::move(task));
}

EngineStats ShardedStreamClassifier::stats() const {
  EngineStats total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->stats_mutex);
    total += shard->published;
  }
  return total;
}

void ShardedStreamClassifier::publish(Shard& shard) {
  const std::lock_guard<std::mutex> lock(shard.stats_mutex);
  shard.published = shard.extractor.stats();
  shard.published.delivered_windows = shard.delivered;
}

void ShardedStreamClassifier::recycle(Shard& shard, std::span<Task> tasks) {
  const std::lock_guard<std::mutex> lock(shard.pool_mutex);
  for (Task& t : tasks) {
    if (shard.sample_pool.size() >= kSamplePoolCap) break;
    if (t.samples.capacity() > 0) shard.sample_pool.push_back(std::move(t.samples));
  }
}

void ShardedStreamClassifier::worker_loop(Shard& shard) {
  std::vector<ExtractedWindow> windows;
  std::vector<Task> round;
  std::vector<WindowExtractor::PatientChunk> chunks;
  std::optional<Task> pending;  ///< Popped while coalescing, deferred.
  const auto collect = [&windows](ExtractedWindow&& window) {
    windows.push_back(std::move(window));
  };
  const auto note_error = [&] {
    // Record the first error for the next flush() and keep serving: one
    // patient without a model must not take down the whole shard.
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  };
  for (;;) {
    std::optional<Task> task =
        pending ? std::exchange(pending, std::nullopt) : shard.tasks.wait_pop();
    if (!task) break;  // Closed and drained.
    if (task->fence) {
      // Every earlier task has published its counters, so a stats() after
      // flush() is exact.
      {
        const std::lock_guard<std::mutex> lock(fence_mutex_);
        ++fences_reached_;
      }
      fence_cv_.notify_all();
      continue;
    }
    if (task->evict) {
      shard.extractor.erase_patient(task->patient_id);
      continue;
    }
    if (task->end_stream) {
      windows.clear();
      shard.extractor.end_patient(task->patient_id, collect);
      if (!windows.empty()) {
        try {
          classify_batch(task->patient_id, windows, shard);
        } catch (...) {
          note_error();
        }
      }
      publish(shard);
      continue;
    }

    // Sample chunk: coalesce whatever other patients' chunks are already
    // queued (up to the lane-pack width) so the extractor steps the round in
    // SIMD lockstep. A control task — or a second chunk for a patient
    // already in the round — ends the round and carries into the next
    // iteration, preserving per-patient stream order and fence ordering.
    round.clear();
    round.push_back(std::move(*task));
    while (round.size() < ecg::LaneQrsDetector::kMaxLanes) {
      auto next = shard.tasks.try_pop();
      if (!next) break;
      const bool control = next->fence || next->evict || next->end_stream;
      const bool duplicate =
          std::any_of(round.begin(), round.end(),
                      [&](const Task& t) { return t.patient_id == next->patient_id; });
      if (control || duplicate) {
        pending = std::move(next);
        break;
      }
      round.push_back(std::move(*next));
    }

    windows.clear();
    chunks.clear();
    for (const Task& t : round) chunks.push_back({t.patient_id, t.samples});
    shard.extractor.push_batch(chunks, collect);

    // Windows land contiguously per patient in round order; each patient's
    // segment is classified and delivered on its own.
    std::size_t begin = 0;
    for (const Task& t : round) {
      std::size_t end = begin;
      while (end < windows.size() && windows[end].patient_id == t.patient_id) ++end;
      if (end > begin) {
        try {
          classify_batch(t.patient_id,
                         std::span<const ExtractedWindow>(windows.data() + begin, end - begin),
                         shard);
        } catch (...) {
          note_error();
        }
      }
      begin = end;
    }
    publish(shard);
    recycle(shard, round);  // Hand the drained buffers back to the producers.
  }
}

void ShardedStreamClassifier::classify_batch(int patient_id,
                                             std::span<const ExtractedWindow> windows,
                                             Shard& shard) {
  // Snapshot the patient's model for every workload once per batch: this is
  // the hot-swap fence. The batch runs to completion on the snapshot even if
  // install() replaces a registry entry mid-batch; the next batch sees the
  // new model. The snapshot is dropped when the batch ends, however it
  // ends, so a replaced model dies with its last batch.
  struct Release {
    std::vector<std::shared_ptr<const ServableModel>>& models;
    ~Release() { std::fill(models.begin(), models.end(), nullptr); }
  } release{shard.models};
  auto& models = shard.models;
  for (std::uint32_t w = 0; w < models.size(); ++w) {
    models[w] = registry_->resolve(w, patient_id);
    if (!models[w])
      throw std::runtime_error("ShardedStreamClassifier: no model for workload " +
                               std::to_string(w) + ", patient " +
                               std::to_string(patient_id));
  }
  classify_windows(windows, models, shard.scratch, shard.results);
  options_.sink(shard.results);
  shard.delivered += windows.size();
}

void ShardedStreamClassifier::flush() {
  {
    const std::lock_guard<std::mutex> lock(fence_mutex_);
    fences_reached_ = 0;
  }
  Task fence;
  fence.fence = true;
  // Control push: fences bypass queue capacity, so a flush cannot deadlock
  // against a saturated shard queue.
  for (auto& shard : shards_) shard->tasks.push_control(fence);
  {
    std::unique_lock<std::mutex> lock(fence_mutex_);
    fence_cv_.wait(lock, [this] { return fences_reached_ == shards_.size(); });
  }

  // A worker delivers a chunk's results before popping the next task, so
  // once every fence is visible everything pushed before this flush has been
  // delivered to the sink.
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (error_) {
    auto error = std::exchange(error_, nullptr);  // The engine stays usable.
    std::rethrow_exception(error);
  }
}

}  // namespace svt::rt
