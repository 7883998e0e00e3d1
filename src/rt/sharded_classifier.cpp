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
  placement_ =
      options_.placement ? options_.placement : std::make_shared<FibonacciPlacement>();
  const std::size_t n = std::max<std::size_t>(options_.num_workers, 1);
  shard_patients_.assign(n, 0);
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s)
    shards_.push_back(std::make_unique<Shard>(config, options_));  // Validates config per shard.
  for (std::size_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    shard.worker = std::thread([this, s, &shard] { worker_loop(s, shard); });
  }
  if (options_.deadline.target_p99_s > 0.0)
    deadline_thread_ = std::thread([this] { deadline_loop(); });
}

ShardedStreamClassifier::ShardedStreamClassifier(const core::TailoredDetector& detector,
                                                 StreamConfig config, EngineOptions options)
    : ShardedStreamClassifier(
          std::make_shared<ModelRegistry>(ServableModel::from_detector(detector)), config,
          std::move(options)) {}

ShardedStreamClassifier::~ShardedStreamClassifier() {
  if (deadline_thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(deadline_mutex_);
      deadline_stop_ = true;
    }
    deadline_cv_.notify_all();
    deadline_thread_.join();
  }
  for (auto& shard : shards_) shard->tasks.close();
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

std::size_t ShardedStreamClassifier::shard_of(int patient_id) const {
  const std::lock_guard<std::mutex> lock(route_mutex_);
  const auto it = routes_.find(patient_id);
  if (it != routes_.end()) return it->second.shard;
  // Unseen patient: ask the policy prospectively without creating a route
  // (exact for stateless policies; a load-dependent guess otherwise).
  std::vector<ShardLoad> loads(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    loads[s] = ShardLoad{shards_[s]->tasks.size(), shard_patients_[s]};
  return placement_->place(patient_id, loads) % shards_.size();
}

std::size_t ShardedStreamClassifier::route_for_push(int patient_id) {
  const std::lock_guard<std::mutex> lock(route_mutex_);
  auto [it, inserted] = routes_.try_emplace(patient_id);
  if (inserted) {
    std::vector<ShardLoad> loads(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s)
      loads[s] = ShardLoad{shards_[s]->tasks.size(), shard_patients_[s]};
    it->second.shard = placement_->place(patient_id, loads) % shards_.size();
    ++shard_patients_[it->second.shard];
  }
  ++it->second.issued;
  return it->second.shard;
}

void ShardedStreamClassifier::push_samples(int patient_id,
                                           std::span<const double> samples_mv) {
  const std::size_t shard = route_for_push(patient_id);
  Task task;
  task.patient_id = patient_id;
  {
    // Reuse a drained chunk's buffer (worker returns them after each round):
    // the steady-state ingest path re-copies into the same cache-warm pages
    // instead of allocating fresh cold ones.
    Shard& home = *shards_[shard];
    const std::lock_guard<std::mutex> lock(home.pool_mutex);
    if (!home.sample_pool.empty()) {
      task.samples = std::move(home.sample_pool.back());
      home.sample_pool.pop_back();
    }
  }
  task.samples.assign(samples_mv.begin(), samples_mv.end());
  task.enqueued = std::chrono::steady_clock::now();
  shards_[shard]->tasks.push(std::move(task));
}

void ShardedStreamClassifier::evict_patient(int patient_id) {
  Task task;
  task.patient_id = patient_id;
  task.evict = true;
  // Control push: an eviction must reach the worker even when producers have
  // the queue saturated, and must never be displaced by drop-oldest.
  const std::size_t shard = route_for_push(patient_id);
  shards_[shard]->tasks.push_control(std::move(task));
}

void ShardedStreamClassifier::end_stream(int patient_id) {
  Task task;
  task.patient_id = patient_id;
  task.end_stream = true;
  task.enqueued = std::chrono::steady_clock::now();
  // Control push, like evictions: the end of a stream must not be dropped.
  const std::size_t shard = route_for_push(patient_id);
  shards_[shard]->tasks.push_control(std::move(task));
}

void ShardedStreamClassifier::rebalance_patient(int patient_id, std::size_t dest) {
  if (dest >= shards_.size())
    throw std::invalid_argument("ShardedStreamClassifier::rebalance_patient: shard " +
                                std::to_string(dest) + " out of range");
  std::size_t victim = 0;
  {
    const std::lock_guard<std::mutex> lock(route_mutex_);
    auto [it, inserted] = routes_.try_emplace(patient_id);
    if (inserted) {
      // Unseen patient: just pre-route it, nothing to migrate.
      it->second.shard = dest;
      ++shard_patients_[dest];
      return;
    }
    RouteEntry& route = it->second;
    if (route.shard == dest || route.migrating) return;
    route.migrating = true;
    victim = route.shard;
  }
  Task token;
  token.patient_id = patient_id;
  token.migrate = true;
  token.dest = dest;
  // Front insertion: the hand-off should happen now, not after the victim
  // has drained its whole backlog (the extraction protocol accounts for the
  // patient's queued chunks wherever they sit).
  if (!shards_[victim]->tasks.push_control_front(std::move(token))) {
    const std::lock_guard<std::mutex> lock(route_mutex_);
    const auto it = routes_.find(patient_id);
    if (it != routes_.end()) it->second.migrating = false;
  }
}

std::size_t ShardedStreamClassifier::dropped_chunks() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->tasks.dropped();
  return total;
}

SchedulerStats ShardedStreamClassifier::scheduler_stats() const {
  SchedulerStats s;
  s.steals = steals_.load();
  s.migrations = migrations_.load();
  s.migrated_chunks = migrated_chunks_.load();
  s.stride_widenings = stride_widenings_.load();
  s.shed_activations = shed_activations_.load();
  for (const auto& shard : shards_) s.shed_chunks += shard->tasks.forced_dropped();
  s.deadline_level = static_cast<std::size_t>(deadline_level_.load());
  return s;
}

features::SegmentCacheStats ShardedStreamClassifier::cache_stats() const {
  features::SegmentCacheStats total;
  for (const auto& shard : shards_) total += shard->extractor.cache_stats();
  // A patient whose stream goes quiet right after a migration stays parked
  // on its route until the next push lazily attaches it — its travelling
  // cache lives in no extractor, so fold parked state in here.
  const std::lock_guard<std::mutex> lock(route_mutex_);
  for (const auto& [pid, route] : routes_)
    if (route.parked) total += route.parked->cache->stats();
  return total;
}

ecg::QualityStats ShardedStreamClassifier::quality_stats() const {
  // Gate stats travel with a migrating patient, so summing the shard
  // extractors is exact when the engine is quiescent (after flush()) —
  // provided parked patients (detached by the victim, not yet attached by
  // the new owner; permanent if the stream never pushes again) are counted
  // too. A mid-migration read can still transiently miss in-flight state.
  ecg::QualityStats total;
  for (const auto& shard : shards_) total += shard->extractor.quality_stats();
  const std::lock_guard<std::mutex> lock(route_mutex_);
  for (const auto& [pid, route] : routes_)
    if (route.parked && route.parked->gate) total += route.parked->gate->stats();
  return total;
}

EngineStats ShardedStreamClassifier::stats() const {
  EngineStats s;
  s.delivered_windows = delivered_.load();
  s.rejected_windows = rejected_.load();
  s.dropped_chunks = dropped_chunks();
  s.windows_annotated = annotated_.load();
  s.windows_suppressed = suppressed_.load();
  for (const auto& shard : shards_) {
    s.lane_vector_samples += shard->lane_vector_samples.load(std::memory_order_relaxed);
    s.lane_scalar_samples += shard->lane_scalar_samples.load(std::memory_order_relaxed);
  }
  s.scheduler = scheduler_stats();
  return s;
}

void ShardedStreamClassifier::record_latency(Shard& shard,
                                             std::chrono::steady_clock::time_point enqueued) {
  const double latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - enqueued).count();
  const std::lock_guard<std::mutex> lock(shard.latency_mutex);
  if (shard.latencies_s.size() < kLatencyReservoir) {
    shard.latencies_s.push_back(latency);
  } else {
    // Reservoir full: overwrite the oldest entry (recent-window view).
    shard.latencies_s[shard.latency_next] = latency;
    shard.latency_next = (shard.latency_next + 1) % kLatencyReservoir;
  }
}

void ShardedStreamClassifier::settle_patient_locked(int patient_id) {
  const auto it = routes_.find(patient_id);
  if (it != routes_.end()) ++it->second.settled;
}

void ShardedStreamClassifier::settle_evicted_locked(Shard& shard) {
  for (const Task& task : shard.tasks.take_evicted()) settle_patient_locked(task.patient_id);
}

void ShardedStreamClassifier::settle_evicted(Shard& shard) {
  auto evicted = shard.tasks.take_evicted();
  if (evicted.empty()) return;
  const std::lock_guard<std::mutex> lock(route_mutex_);
  for (const Task& task : evicted) settle_patient_locked(task.patient_id);
}

void ShardedStreamClassifier::ensure_attached(std::size_t self, Shard& shard, int patient_id) {
  if (shard.extractor.has_patient(patient_id)) return;
  std::unique_ptr<WindowExtractor::DetachedPatient> parked;
  {
    const std::lock_guard<std::mutex> lock(route_mutex_);
    const auto it = routes_.find(patient_id);
    if (it == routes_.end() || it->second.shard != self || !it->second.parked) return;
    parked = std::move(it->second.parked);
  }
  // Attaching is worker-local extractor surgery; the state was moved out
  // under the routing lock, so no other thread can observe or race it.
  shard.extractor.attach_patient(patient_id, std::move(*parked));
}

bool ShardedStreamClassifier::maybe_steal(std::size_t self) {
  const std::lock_guard<std::mutex> lock(route_mutex_);
  if (fence_pending_) return false;  // Never start a hand-off across a fence.
  int best_patient = 0;
  std::size_t best_backlog = 0;
  for (const auto& [pid, route] : routes_) {
    if (route.shard == self || route.migrating) continue;
    const std::size_t backlog = route.issued - route.settled;
    if (backlog >= options_.stealing.min_backlog && backlog > best_backlog) {
      best_backlog = backlog;
      best_patient = pid;
    }
  }
  if (best_backlog == 0) return false;
  RouteEntry& route = routes_.at(best_patient);
  route.migrating = true;
  ++steals_;
  Task token;
  token.patient_id = best_patient;
  token.migrate = true;
  token.dest = self;
  // Front insertion: stealing only relieves the victim if the hand-off jumps
  // its backlog — the stolen patient's queued chunks move to this (idle)
  // worker immediately instead of after the victim drains everything.
  if (!shards_[route.shard]->tasks.push_control_front(std::move(token))) {
    route.migrating = false;
    return false;
  }
  return true;
}

void ShardedStreamClassifier::handle_migration(std::size_t self, Shard& shard,
                                               const Task& token) {
  std::vector<WorkQueue<Task>::Extracted> moved;
  bool retry = false;
  bool retry_behind_data = false;
  {
    const std::lock_guard<std::mutex> lock(route_mutex_);
    const auto it = routes_.find(token.patient_id);
    if (it == routes_.end()) return;
    RouteEntry& route = it->second;
    if (!route.migrating) return;  // Cancelled (e.g. failed re-queue).
    if (route.shard != self || token.dest >= shards_.size() || token.dest == self) {
      route.migrating = false;
      return;
    }
    if (fence_pending_) {
      // A flush is fencing: moving queued chunks to a destination whose
      // fence may already have passed would deliver them after the flush
      // returns. Park the token behind our own fence and retry.
      retry = true;
    } else {
      // The cutoff check needs exact settled counts: fold in any
      // backpressure evictions that raced this far.
      settle_evicted_locked(shard);
      const int pid = token.patient_id;
      const std::size_t k = shard.tasks.extract_matching(
          [pid](const Task& t) { return !t.fence && !t.migrate && t.patient_id == pid; },
          moved);
      if (route.settled + k != route.issued) {
        // A producer has incremented issued under the routing lock but its
        // push has not landed in our queue yet. Put the backlog back (front
        // insertion preserves per-patient order) and retry the token —
        // behind one data item, never at the very head: the in-flight push
        // may be blocked on a full kBlock queue, and only draining a data
        // slot lets it land (a head-parked token would spin forever).
        shard.tasks.reinsert_front(std::move(moved));
        moved.clear();
        retry = true;
        retry_behind_data = true;
      } else {
        // Exact cutoff: every issued task is either settled or in `moved`.
        // Detach the extraction state (if the patient ever reached our
        // extractor — it may still be parked from a previous hop, or have
        // ended), park it on the route, and re-home the patient. Producers
        // serialised behind route_mutex_ see the new shard before they can
        // push again, so nothing for this patient lands on us afterwards.
        if (auto detached = shard.extractor.detach_patient(pid))
          route.parked =
              std::make_unique<WindowExtractor::DetachedPatient>(std::move(*detached));
        --shard_patients_[self];
        ++shard_patients_[token.dest];
        route.shard = token.dest;
        route.migrating = false;
        // Forward the backlog while still holding the routing lock: the
        // thief cannot attach (lazy attach takes route_mutex_) until we
        // release, so it can never process these chunks stateless. Control
        // pushes keep queue-position semantics (end_stream/evict entries
        // stay control; data entries bypassing capacity here is deliberate —
        // a migration must not deadlock on a full destination).
        auto& dest_queue = shards_[token.dest]->tasks;
        for (auto& entry : moved) dest_queue.push_control(std::move(entry.item));
        ++migrations_;
        migrated_chunks_ += moved.size();
      }
    }
  }
  if (retry) {
    // An in-flight push resolves in a moment: keep the token near the head
    // (behind the first data item) so the hand-off completes promptly while
    // the queue still drains. A pending fence is different — requeue at the
    // back, behind our own fence, so the retry runs after the flush.
    Task again = token;
    const bool requeued = retry_behind_data
                              ? shard.tasks.push_control_behind_data(std::move(again))
                              : shard.tasks.push_control(std::move(again));
    if (!requeued) {
      const std::lock_guard<std::mutex> lock(route_mutex_);
      const auto it = routes_.find(token.patient_id);
      if (it != routes_.end()) it->second.migrating = false;
    }
    // The blocker (an in-flight push, or a flush draining other shards) is
    // external; don't spin the queue hot while it clears.
    std::this_thread::yield();
  }
}

void ShardedStreamClassifier::worker_loop(std::size_t self, Shard& shard) {
  std::vector<ExtractedWindow> windows;
  std::vector<Task> round;
  std::vector<WindowExtractor::PatientChunk> chunks;
  std::optional<Task> pending;  ///< Popped while coalescing, deferred.
  const bool stealing = options_.stealing.enable;
  std::size_t steal_backoff = 1;  ///< Idle polls between steal scans.
  std::size_t idle_polls = 0;     ///< Empty polls since the last scan.
  const auto collect = [&windows](ExtractedWindow&& window) {
    windows.push_back(std::move(window));
  };
  const auto note_rejected = [&] {
    const std::size_t rejected_now = shard.extractor.rejected_windows();
    if (rejected_now != shard.rejected_reported) {
      rejected_ += rejected_now - shard.rejected_reported;
      shard.rejected_reported = rejected_now;
    }
    // Same watermark pattern for the quality-gate counters. These are the
    // extractor's OWN monotone event counts (they do not travel with a
    // migrating patient), so the delta is never negative.
    if (config_.quality.enable) {
      const std::size_t annotated_now = shard.extractor.annotated_windows();
      if (annotated_now != shard.annotated_reported) {
        annotated_ += annotated_now - shard.annotated_reported;
        shard.annotated_reported = annotated_now;
      }
      const std::size_t suppressed_now = shard.extractor.suppressed_windows();
      if (suppressed_now != shard.suppressed_reported) {
        suppressed_ += suppressed_now - shard.suppressed_reported;
        shard.suppressed_reported = suppressed_now;
      }
    }
  };
  const auto note_error = [&] {
    // Record the first error for the next flush() and keep serving: one
    // patient without a model must not take down the whole shard.
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  };
  const auto settle_one = [&](int patient_id) {
    const std::lock_guard<std::mutex> lock(route_mutex_);
    settle_patient_locked(patient_id);
  };
  for (;;) {
    settle_evicted(shard);
    // Deadline mode: pick up the controller's stride factor at a batch
    // boundary (never mid-round).
    const std::size_t stride = stride_factor_.load(std::memory_order_relaxed);
    if (stride != shard.extractor.stride_factor()) shard.extractor.set_stride_factor(stride);

    std::optional<Task> task;
    if (pending) {
      task = std::exchange(pending, std::nullopt);
    } else if (stealing) {
      // Stealing mode: an empty queue is the steal trigger. The scan is
      // O(patients) under route_mutex_ — the producer hot path's lock — so
      // failed scans back off exponentially (1, 2, 4, ... capped polls
      // between attempts) instead of contending it every idle millisecond;
      // fresh work or a successful steal resets the cadence.
      task = shard.tasks.try_pop();
      if (!task) {
        if (++idle_polls >= steal_backoff) {
          idle_polls = 0;
          steal_backoff =
              maybe_steal(self) ? 1 : std::min(steal_backoff * 2, kMaxStealBackoffPolls);
        }
        bool timed_out = false;
        task = shard.tasks.wait_pop_for(kIdlePoll, timed_out);
        if (!task) {
          if (timed_out) continue;
          break;  // Closed and drained.
        }
      }
      steal_backoff = 1;  // Fresh work: next idle spell scans immediately.
      idle_polls = 0;
    } else {
      task = shard.tasks.wait_pop();
      if (!task) break;
    }
    if (task->fence) {
      {
        const std::lock_guard<std::mutex> lock(fence_mutex_);
        ++fences_reached_;
      }
      fence_cv_.notify_all();
      continue;
    }
    if (task->migrate) {
      handle_migration(self, shard, *task);
      continue;
    }
    if (task->evict) {
      {
        const std::lock_guard<std::mutex> lock(route_mutex_);
        const auto it = routes_.find(task->patient_id);
        if (it != routes_.end()) {
          it->second.parked.reset();  // Free state parked mid-migration too.
          ++it->second.settled;
        }
      }
      shard.extractor.erase_patient(task->patient_id);
      continue;
    }
    if (task->end_stream) {
      ensure_attached(self, shard, task->patient_id);
      windows.clear();
      shard.extractor.end_patient(task->patient_id, collect);
      note_rejected();
      if (!windows.empty()) {
        try {
          classify_batch(task->patient_id, windows, shard);
          record_latency(shard, task->enqueued);
        } catch (...) {
          note_error();
        }
      }
      settle_one(task->patient_id);
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
      const bool control = next->fence || next->evict || next->end_stream || next->migrate;
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
    for (const Task& t : round) {
      ensure_attached(self, shard, t.patient_id);
      chunks.push_back({t.patient_id, t.samples});
    }
    shard.extractor.push_batch(chunks, collect);
    note_rejected();
    shard.lane_vector_samples.store(shard.extractor.lane_vector_samples(),
                                    std::memory_order_relaxed);
    shard.lane_scalar_samples.store(shard.extractor.lane_scalar_samples(),
                                    std::memory_order_relaxed);

    // Windows land contiguously per patient in round order; each patient's
    // segment is classified and delivered on its own, with the latency clock
    // of that patient's chunk.
    std::size_t begin = 0;
    for (const Task& t : round) {
      std::size_t end = begin;
      while (end < windows.size() && windows[end].patient_id == t.patient_id) ++end;
      if (end > begin) {
        try {
          classify_batch(t.patient_id,
                         std::span<const ExtractedWindow>(windows.data() + begin, end - begin),
                         shard);
          record_latency(shard, t.enqueued);
        } catch (...) {
          note_error();
        }
      }
      begin = end;
    }
    {
      const std::lock_guard<std::mutex> lock(route_mutex_);
      for (const Task& t : round) settle_patient_locked(t.patient_id);
    }
    {
      // Hand the drained buffers back to the producers (see Shard::sample_pool).
      const std::lock_guard<std::mutex> lock(shard.pool_mutex);
      for (Task& t : round) {
        if (shard.sample_pool.size() >= kSamplePoolCap) break;
        if (t.samples.capacity() > 0) shard.sample_pool.push_back(std::move(t.samples));
      }
    }
  }
}

void ShardedStreamClassifier::classify_batch(int patient_id,
                                             std::span<const ExtractedWindow> windows,
                                             Shard& shard) {
  // All staging lives in the shard's scratch: rows, values and the kernel's
  // transpose/quantise buffers keep their capacity between batches, so the
  // steady-state serve loop performs no heap allocation.
  const std::size_t n = windows.size();
  ClassifyScratch& scratch = shard.scratch;
  auto& batch = scratch.batch;
  batch.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    batch[k].patient_id = patient_id;
    batch[k].start_s = windows[k].start_s;
    batch[k].num_beats = windows[k].num_beats;
    batch[k].workload = windows[k].workload;
    batch[k].quality = windows[k].quality;
  }

  // One batched kernel call per workload: gather that workload's windows in
  // emission order, classify, scatter the values back. A single-workload
  // stream takes exactly one call over the whole batch in emission order —
  // the historical behaviour, bit for bit.
  const std::size_t num_workloads = shard.extractor.num_workloads();
  for (std::uint32_t w = 0; w < num_workloads; ++w) {
    auto& index = scratch.index;
    index.clear();
    for (std::size_t k = 0; k < n; ++k)
      if (windows[k].workload == w) index.push_back(k);
    if (index.empty()) continue;

    // Snapshot the (workload, patient) model once per batch: this is the
    // hot-swap fence. The batch runs to completion on the snapshot even if
    // install() replaces the registry entry mid-batch; the next batch sees
    // the new model.
    const auto model = registry_->resolve(w, patient_id);
    if (!model)
      throw std::runtime_error("ShardedStreamClassifier: no model for workload " +
                               std::to_string(w) + ", patient " +
                               std::to_string(patient_id));

    const std::size_t m = index.size();
    if (scratch.rows.size() < m) scratch.rows.resize(m);
    for (std::size_t k = 0; k < m; ++k)
      model->prepare_row(windows[index[k]].features_view(), scratch.rows[k]);
    const std::span<const std::vector<double>> rows(scratch.rows.data(), m);

    auto& values = scratch.values;
    model->decision_values(rows, values, scratch.kernel);
    for (std::size_t k = 0; k < m; ++k) {
      batch[index[k]].decision_value = values[k];
      batch[index[k]].label = values[k] >= 0.0 ? +1 : -1;
    }
  }
  options_.sink(batch);
  delivered_ += n;
}

std::vector<double> ShardedStreamClassifier::delivery_latencies_s() const {
  std::vector<double> all;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->latency_mutex);
    all.insert(all.end(), shard->latencies_s.begin(), shard->latencies_s.end());
  }
  return all;
}

void ShardedStreamClassifier::flush() {
  {
    const std::lock_guard<std::mutex> lock(route_mutex_);
    fence_pending_ = true;  // Pause migrations for the fence's duration.
  }
  {
    const std::lock_guard<std::mutex> lock(fence_mutex_);
    fences_reached_ = 0;
  }
  Task fence;
  fence.fence = true;
  // Control push: fences bypass queue capacity, so a flush cannot deadlock
  // against a saturated shard queue, and drop-oldest can never evict one.
  for (auto& shard : shards_) shard->tasks.push_control(fence);
  {
    std::unique_lock<std::mutex> lock(fence_mutex_);
    fence_cv_.wait(lock, [this] { return fences_reached_ == shards_.size(); });
  }
  {
    const std::lock_guard<std::mutex> lock(route_mutex_);
    fence_pending_ = false;
  }

  // Drain in-flight migrations: a token that raced the fence was requeued
  // behind it and resolves now that fence_pending_ has cleared. Waiting here
  // makes the fence total — after flush() the route table and scheduler
  // counters are settled, not merely the result stream (no new hand-offs can
  // start: everything is settled, so no backlog clears the steal threshold,
  // and a rebalance during a flush is the caller's own race).
  for (;;) {
    bool migrating = false;
    {
      const std::lock_guard<std::mutex> lock(route_mutex_);
      for (const auto& [pid, route] : routes_)
        if (route.migrating) {
          migrating = true;
          break;
        }
    }
    if (!migrating) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
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

void ShardedStreamClassifier::apply_deadline_level(int level) {
  const int previous = deadline_level_.exchange(level);
  if (previous == level) return;
  // Stride: level 0 -> x1, level 1 -> x2, levels 2+ -> x4.
  const std::size_t stride = level >= 2 ? 4 : (level == 1 ? 2 : 1);
  if (stride > stride_factor_.load()) ++stride_widenings_;
  stride_factor_.store(stride);
  // Forced shedding only at the top level.
  const bool shed = level >= 3;
  if (shed && previous < 3) {
    ++shed_activations_;
    for (auto& shard : shards_) shard->tasks.set_forced_drop(true);
  } else if (!shed && previous >= 3) {
    for (auto& shard : shards_) shard->tasks.set_forced_drop(false);
  }
}

void ShardedStreamClassifier::deadline_loop() {
  const auto interval = std::chrono::duration<double>(
      options_.deadline.poll_interval_s > 0 ? options_.deadline.poll_interval_s : 0.05);
  const double target = options_.deadline.target_p99_s;
  int calm_polls = 0;
  std::unique_lock<std::mutex> lock(deadline_mutex_);
  while (!deadline_stop_) {
    deadline_cv_.wait_for(
        lock, std::chrono::duration_cast<std::chrono::nanoseconds>(interval),
        [this] { return deadline_stop_; });
    if (deadline_stop_) break;
    lock.unlock();

    std::vector<double> latencies = delivery_latencies_s();
    if (!latencies.empty()) {
      const std::size_t idx =
          std::min(latencies.size() - 1,
                   static_cast<std::size_t>(0.99 * static_cast<double>(latencies.size())));
      std::nth_element(latencies.begin(),
                       latencies.begin() + static_cast<std::ptrdiff_t>(idx), latencies.end());
      const double p99 = latencies[idx];
      const int level = deadline_level_.load();
      if (p99 > options_.deadline.arm_fraction * target) {
        // Degrading one level per poll gives each remedy a poll interval to
        // bite before the next escalation.
        if (level < 3) apply_deadline_level(level + 1);
        calm_polls = 0;
      } else if (p99 < options_.deadline.recover_fraction * target) {
        if (level > 0 && ++calm_polls >= options_.deadline.recover_polls) {
          apply_deadline_level(level - 1);
          calm_polls = 0;
        }
      } else {
        calm_polls = 0;  // In the hysteresis band: hold the current level.
      }
    }

    lock.lock();
  }
  // Leave the engine un-degraded on shutdown.
  lock.unlock();
  apply_deadline_level(0);
}

}  // namespace svt::rt
