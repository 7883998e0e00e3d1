// Continuous sharded multi-patient serving engine with a ward-scale
// scheduler: pluggable placement, whole-patient work stealing, and a
// deadline controller.
//
// Patients are sharded across N worker threads; each worker owns a private
// WindowExtractor AND classifies its own patients' windows, delivering
// results continuously — there is no global barrier anywhere in the
// steady-state path:
//
//   push_samples(p, chunk)
//        │ route table (placement policy on first sight)
//        ▼                       ┌────────────────────────────────────────┐
//   ┌─────────────┐ coalesced    │ WindowExtractor (lane packs: queued    │
//   │ bounded     │ round of     │  patients' chunks step SIMD lockstep)  │
//   │ shard queue │ ≤8 patients' │  -> registry snapshot (per batch)      │
//   │ (x N)       │ chunks       │  -> prepare + packed batch kernel      │
//   └─────────────┘  block/drop  │  -> ResultSink(batch)   ──────────────────> results
//                                └────────────────────────────────────────┘
//
// Scheduling (all through rt::EngineOptions):
//
//  * Placement — a patient's home shard is decided by the pluggable
//    rt::PlacementPolicy exactly once, when the engine first sees the id;
//    the decision is cached in the route table. The default
//    FibonacciPlacement reproduces the engine's historical static hash;
//    LeastLoadedPlacement spreads wards whose ids collide under it.
//
//  * Work stealing (StealConfig) — an idle worker steals whole PATIENTS,
//    never chunks: it picks the patient with the deepest backlog on another
//    shard and posts a migration token to the victim. The victim executes
//    the hand-off at a batch boundary, atomically under the routing lock:
//    it lifts the patient's entire queued backlog out of its queue
//    (extract_matching), verifies the cutoff is exact against the route
//    table's issued/settled counters (an in-flight producer push retries
//    the token), detaches the patient's extraction state from its lane
//    pack, re-homes the route, and forwards state + backlog to the thief.
//    The thief lazily attaches the state before the patient's next batch.
//    Because lanes compute bit-identically regardless of pack composition
//    (see ecg::LaneQrsDetector), per-patient results are bit-exact under
//    ANY steal schedule — stealing changes where a patient runs, never
//    what it computes. Chunks therefore migrate only between batches and a
//    patient is always processed by exactly one worker at a time.
//
//  * Deadline mode (DeadlineConfig) — a controller thread watches the
//    rolling p99 of delivery_latencies_s() against a target and degrades
//    BEFORE breach: level 1 widens the effective window stride x2 (fewer
//    overlapping windows per sample), level 2 widens x4, level 3 forces
//    drop-oldest shedding on the shard queues. It backs off level by level
//    once the tail holds below recover_fraction * target. Every action is
//    counted in SchedulerStats (scheduler_stats() / stats().scheduler).
//
// Lane coalescing: after popping one chunk, a worker drains whatever other
// patients' chunks are already queued (up to the lane-pack width) and
// extracts the round through WindowExtractor::push_batch, so a backlogged
// shard steps several patients' identical filter chains per instruction.
// Coalescing never reorders: a second chunk for a patient already in the
// round — or any control task — ends the round and is processed after it.
//
// Continuous delivery: every chunk that completes windows is classified
// immediately on the shard's worker (per-patient batch affinity) and handed
// to the ResultSink right away. Delivery guarantees:
//
//  * each sink invocation is ONE patient's windows, in time order;
//  * invocations for a given patient arrive in stream order (the patient's
//    chunks are processed serially by whichever worker owns it — migration
//    hands the patient off wholesale, so ownership is never shared);
//  * different patients' batches may be delivered concurrently from
//    different workers — the sink must be thread-safe across patients.
//
// Backpressure: each shard queue is bounded (EngineOptions::queue_capacity)
// with a configurable policy — kBlock throttles producers to pipeline
// throughput (lossless), kDropOldest evicts the stalest queued chunk and
// counts it in dropped_chunks() (freshest-data-wins for live monitoring).
// Fences and migrations bypass capacity, so flush() and stealing work even
// against saturated queues.
//
// The sink is the only way results leave the engine (construction throws
// without one). flush() is a pure fence: it waits until everything pushed
// before the call has been extracted, classified, and delivered to the
// sink. Migrations pause while a flush is fencing (a hand-off must not move
// queued chunks past a fence already posted to the destination) and resume
// after it completes; flush() then waits for them to resolve, so the fence
// is total — once it returns, the route table and scheduler counters are
// settled too, and shard_of()/scheduler_stats() read race-free.
//
// Hot-swap fencing: workers snapshot a patient's model from the registry
// once per classified batch, so an install() takes effect at the patient's
// next batch boundary — never mid-batch.
//
// Determinism: a patient's chunks are processed serially by one worker at a
// time, in push order, through per-window arithmetic identical to the
// single-threaded StreamClassifier; detach/attach carries the exact filter,
// ring, and threshold state across shards. Per-patient results are
// therefore bit-identical for ANY worker count, placement, chunk
// interleaving, flush cadence, or migration schedule (asserted by
// tests/test_rt_shard.cpp, test_rt_continuous.cpp, and test_rt_sched.cpp) —
// as long as the deadline controller is off (stride widening deliberately
// trades window density for latency).
//
// Thread-safety contract: push_samples may be called from many threads
// concurrently (and may block under the kBlock policy); flush() must not
// run concurrently with another flush(). Registry installs are safe at any
// time from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rt/engine.hpp"
#include "rt/model_registry.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/window_extractor.hpp"
#include "rt/work_queue.hpp"

namespace svt::rt {

class ShardedStreamClassifier {
 public:
  /// Everything beyond the registry and stream config comes through
  /// rt::EngineOptions (worker count, queue sizing, placement, stealing,
  /// deadline mode, sink). Throws std::invalid_argument on a null registry,
  /// a bad stream config (same rules as WindowExtractor), queue_capacity ==
  /// 0, or an empty sink.
  ShardedStreamClassifier(std::shared_ptr<ModelRegistry> registry, StreamConfig config,
                          EngineOptions options);

  /// Serve one cohort-wide detector (the registry holds it as the
  /// workload-0 default; per-patient and per-workload models can still be
  /// installed later).
  ShardedStreamClassifier(const core::TailoredDetector& detector, StreamConfig config,
                          EngineOptions options);

  ~ShardedStreamClassifier();
  ShardedStreamClassifier(const ShardedStreamClassifier&) = delete;
  ShardedStreamClassifier& operator=(const ShardedStreamClassifier&) = delete;

  /// Route a chunk of raw ECG samples (mV) to the patient's shard. Under
  /// kBlock backpressure this may block until the shard drains a chunk; under
  /// kDropOldest it returns immediately (possibly evicting the shard's
  /// stalest queued chunk). Safe to call from multiple threads.
  void push_samples(int patient_id, std::span<const double> samples_mv);

  /// Total fence: wait until every chunk pushed before this call has been
  /// extracted, classified, and delivered to the sink. Rethrows the first
  /// classification error a worker hit since the last flush (e.g. a patient
  /// resolving to no model); the other patients' windows were delivered
  /// regardless. Error-to-fence attribution is best-effort — an error from
  /// a chunk pushed concurrently with this flush may be reported by it or
  /// by the next one.
  void flush();

  /// End a finite patient stream: the owning worker flushes the detector
  /// tail, classifies and delivers the trailing windows the live path holds
  /// back (see WindowExtractor::end_patient), and drops the patient's
  /// stream state. Asynchronous like push_samples; fence with flush() to
  /// wait for the tail delivery.
  void end_stream(int patient_id);

  /// Drop a patient's extraction state (detector, beat ring, window phase)
  /// on their shard. Asynchronous: takes effect after chunks already queued
  /// for the shard; fence with flush() for a synchronous guarantee. Frees
  /// memory for patients that left the ward — the registry entry (and the
  /// patient's route) are untouched.
  void evict_patient(int patient_id);

  /// Which shard (worker) currently serves a patient. For a patient the
  /// engine has seen, this reads the route table (exact, but stale the
  /// moment a migration lands). For an unseen patient it asks the placement
  /// policy prospectively — exact for stateless policies (the default
  /// Fibonacci hash), a load-dependent guess otherwise. Stable for the
  /// engine's lifetime when stealing is off, rebalance_patient is unused,
  /// and placement is the default.
  std::size_t shard_of(int patient_id) const;

  /// Explicitly re-home a patient onto `dest` (same hand-off protocol as a
  /// steal, counted in SchedulerStats::steals/migrations). Asynchronous:
  /// the victim migrates at its next batch boundary; fence with flush() for
  /// a synchronous guarantee. Unknown patients are routed to `dest` for
  /// when they first appear. No-op if the patient already lives on `dest`
  /// or a migration is already pending. Throws std::invalid_argument on an
  /// out-of-range shard. The deterministic lever the churn tests drive.
  void rebalance_patient(int patient_id, std::size_t dest);

  std::size_t num_workers() const { return shards_.size(); }

  /// Windows rejected for having fewer than min_beats R peaks (exact after
  /// a flush; may lag mid-stream while workers are extracting).
  std::size_t rejected_windows() const { return rejected_.load(); }

  /// Sample chunks evicted by the kDropOldest policy (or deadline shedding)
  /// across all shards.
  std::size_t dropped_chunks() const;

  /// Windows delivered to the sink so far.
  std::size_t delivered_windows() const { return delivered_.load(); }

  /// Scheduler counters: steals issued, migrations landed, chunks moved,
  /// deadline actions. Monotonic except deadline_level (current state).
  SchedulerStats scheduler_stats() const;

  /// Aggregate segment-cache counters (hits / misses / evictions of the
  /// incremental feature pipeline) summed over every shard's extractor.
  /// Quiescent read: fence with flush() first — the extractors are
  /// worker-owned, and the fence is what orders their counters with this
  /// call (same contract as an exact shard_of()).
  features::SegmentCacheStats cache_stats() const;

  /// Aggregate quality-gate counters summed over every shard's extractor.
  /// All zeros when the gate is off. Quiescent read like cache_stats():
  /// fence with flush() first — gate state migrates with the patient, so
  /// only a fence makes the per-shard sums coherent.
  ecg::QualityStats quality_stats() const;

  /// Uniform counters. windows_annotated/windows_suppressed are maintained
  /// by worker-side watermarks (like rejected_windows) and the lane counts
  /// by per-shard atomics, so all are safe to read mid-stream and exact
  /// after a flush.
  EngineStats stats() const;

  /// Per-batch delivery latencies in seconds: for every delivered batch,
  /// the time from its chunk's push_samples() submission to the sink
  /// receiving the classified windows — under kBlock backpressure this
  /// deliberately includes the producer's wait for queue space, since that
  /// is part of the latency a submitter observes. Bounded:
  /// each shard keeps a fixed-size reservoir of the most recent batches
  /// (kLatencyReservoir), so long-running engines report a recent-window
  /// percentile view at constant memory. Drives the deadline controller.
  /// Snapshot is consistent mid-stream (per-shard mutex); for an exact
  /// account of everything pushed, fence with flush() first.
  std::vector<double> delivery_latencies_s() const;

  ModelRegistry& registry() { return *registry_; }
  const ModelRegistry& registry() const { return *registry_; }
  const StreamConfig& config() const { return config_; }
  const EngineOptions& options() const { return options_; }

  /// The resolved workload list (every shard serves the same list; see
  /// StreamConfig::workloads).
  const std::vector<std::shared_ptr<const Workload>>& workloads() const {
    return shards_.front()->extractor.workloads();
  }
  std::size_t num_workloads() const { return workloads().size(); }

 private:
  struct Task {
    int patient_id = 0;
    std::vector<double> samples;
    bool fence = false;
    bool evict = false;
    bool end_stream = false;
    bool migrate = false;     ///< Migration token: victim hands patient to dest.
    std::size_t dest = 0;     ///< Thief shard (migrate tokens only).
    std::chrono::steady_clock::time_point enqueued;  ///< For delivery latency.
  };

  /// Per-worker classification staging, reused across batches so the serve
  /// hot loop is allocation-free once warm (one per shard, worker-only).
  struct ClassifyScratch {
    std::vector<std::vector<double>> rows;  ///< Prepared (selected+scaled) rows.
    std::vector<double> values;
    std::vector<WindowResult> batch;
    std::vector<std::size_t> index;  ///< Batch positions of one workload's windows.
    KernelScratch kernel;
  };

  struct Shard {
    explicit Shard(const StreamConfig& config, const EngineOptions& options)
        : tasks(options.queue_capacity, options.backpressure), extractor(config) {}
    WorkQueue<Task> tasks;
    WindowExtractor extractor;          ///< Touched only by the worker thread.
    ClassifyScratch scratch;            ///< Touched only by the worker thread.
    std::size_t rejected_reported = 0;  ///< Worker-local watermark.
    std::size_t annotated_reported = 0;   ///< Quality watermarks (worker-local,
    std::size_t suppressed_reported = 0;  ///< against the extractor's counters).
    mutable std::mutex latency_mutex;   ///< Guards the latency reservoir.
    std::vector<double> latencies_s;    ///< Most recent delivered batches.
    std::size_t latency_next = 0;       ///< Overwrite cursor once full.
    /// The extractor's cumulative lane counts, stored by the worker after
    /// each round. One writer each, so stats() reads them relaxed; flush()'s
    /// fence orders the last store before a post-flush read.
    std::atomic<std::uint64_t> lane_vector_samples{0};
    std::atomic<std::uint64_t> lane_scalar_samples{0};
    /// Recycled Task sample buffers: the worker returns each drained chunk's
    /// vector here and push_samples reuses it for the next chunk, so the
    /// steady-state ingest path stops allocating (and, more importantly,
    /// keeps re-copying into the same cache-warm pages instead of marching
    /// through fresh cold memory — a measured ~20x per-chunk cost swing when
    /// the queue is shallow). Leaf lock: never held with another lock.
    std::mutex pool_mutex;
    std::vector<std::vector<double>> sample_pool;
    std::thread worker;
  };
  /// Buffers kept per shard; beyond this they are freed (bounds pool memory
  /// to kSamplePoolCap x chunk size per shard). Sized to cover a bounded
  /// queue's refill burst — a blocked producer wakes when the queue drains
  /// to half of a typical capacity (<= 512), and every push in that burst
  /// should find a recycled buffer rather than a cold allocation.
  static constexpr std::size_t kSamplePoolCap = 64;

  /// One patient's routing state. `issued` counts per-patient tasks routed
  /// (data + end_stream + evict); `settled` counts those consumed by a
  /// worker or evicted by backpressure. issued == settled means no task for
  /// the patient is queued or executing — the migration cutoff invariant.
  struct RouteEntry {
    std::size_t shard = 0;
    std::size_t issued = 0;
    std::size_t settled = 0;
    bool migrating = false;  ///< A migration token is pending for the patient.
    /// Extraction state parked mid-migration: detached by the victim, owned
    /// here until the new shard's worker lazily attaches it.
    std::unique_ptr<WindowExtractor::DetachedPatient> parked;
  };

  /// Per-shard bound on the delivery-latency reservoir: once full, the
  /// oldest samples are overwritten, so a long-running engine keeps a
  /// recent-window percentile view at fixed memory.
  static constexpr std::size_t kLatencyReservoir = 4096;

  /// Idle-worker poll period: a worker whose queue is empty wakes this often
  /// (stealing mode only — otherwise workers block) so a successful steal or
  /// fresh work is picked up promptly.
  static constexpr std::chrono::milliseconds kIdlePoll{1};

  /// Steal-scan backoff cap, in idle polls. The steal scan is O(patients)
  /// under route_mutex_ — the same lock the producer hot path takes — so a
  /// mostly-idle worker must not run it every poll: after each failed scan
  /// the polls between scans double (1, 2, 4, ...) up to this cap (~64 ms at
  /// kIdlePoll), and any popped task or successful steal resets the cadence.
  static constexpr std::size_t kMaxStealBackoffPolls = 64;

  void worker_loop(std::size_t self, Shard& shard);
  void classify_batch(int patient_id, std::span<const ExtractedWindow> windows, Shard& shard);
  void record_latency(Shard& shard, std::chrono::steady_clock::time_point enqueued);

  /// Producer side: find-or-create the patient's route (consulting the
  /// placement policy on first sight), count the task as issued, and return
  /// the shard to push to. The shard choice and the issued increment are
  /// atomic under route_mutex_ — the invariant the migration cutoff relies
  /// on.
  std::size_t route_for_push(int patient_id);

  /// Worker side: drain the shard queue's eviction log and settle each
  /// evicted task's patient. Called every loop iteration (and inside the
  /// migration cutoff check). `locked` variant expects route_mutex_ held.
  void settle_evicted(Shard& shard);
  void settle_evicted_locked(Shard& shard);
  void settle_patient_locked(int patient_id);

  /// Worker side: attach the patient's parked extraction state if this
  /// shard now owns a freshly migrated patient (lazy attach, before the
  /// patient's next batch).
  void ensure_attached(std::size_t self, Shard& shard, int patient_id);

  /// Victim side: execute (or retry) a migration token at a batch boundary.
  void handle_migration(std::size_t self, Shard& shard, const Task& token);

  /// Thief side: scan the route table for the deepest-backlog patient on
  /// another shard and post a migration token for it. Returns whether a
  /// token was issued (drives the idle scan backoff).
  bool maybe_steal(std::size_t self);

  /// Deadline controller (runs on deadline_thread_ when
  /// options_.deadline.target_p99_s > 0).
  void deadline_loop();
  void apply_deadline_level(int level);

  std::shared_ptr<ModelRegistry> registry_;
  StreamConfig config_;
  EngineOptions options_;
  std::shared_ptr<PlacementPolicy> placement_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Routing (route_mutex_ is the outermost lock: queue mutexes may be taken
  // under it — via push/extract/size — but never the reverse).
  mutable std::mutex route_mutex_;
  std::unordered_map<int, RouteEntry> routes_;
  std::vector<std::size_t> shard_patients_;  ///< Patients routed per shard.
  bool fence_pending_ = false;  ///< A flush is fencing: migrations pause.

  // Fence protocol (guarded by fence_mutex_).
  std::mutex fence_mutex_;
  std::condition_variable fence_cv_;
  std::size_t fences_reached_ = 0;  ///< Shards done with the current fence.

  // First classification error since the last flush (guarded by error_mutex_).
  std::mutex error_mutex_;
  std::exception_ptr error_;

  // Deadline controller.
  std::thread deadline_thread_;
  std::mutex deadline_mutex_;
  std::condition_variable deadline_cv_;
  bool deadline_stop_ = false;
  std::atomic<std::size_t> stride_factor_{1};  ///< Workers apply per round.
  std::atomic<int> deadline_level_{0};

  // Scheduler counters.
  std::atomic<std::size_t> steals_{0};
  std::atomic<std::size_t> migrations_{0};
  std::atomic<std::size_t> migrated_chunks_{0};
  std::atomic<std::size_t> stride_widenings_{0};
  std::atomic<std::size_t> shed_activations_{0};

  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> delivered_{0};
  std::atomic<std::size_t> annotated_{0};
  std::atomic<std::size_t> suppressed_{0};
};

}  // namespace svt::rt
