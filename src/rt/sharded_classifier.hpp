// Continuous sharded multi-patient serving engine.
//
// Patients are sharded across N worker threads; each worker owns a private
// WindowExtractor AND classifies its own patients' windows, delivering
// results continuously — there is no global barrier anywhere in the
// steady-state path:
//
//   push_samples(p, chunk)
//        │ fibonacci_shard(p, N)
//        ▼                       ┌────────────────────────────────────────┐
//   ┌─────────────┐ coalesced    │ WindowExtractor (lane packs: queued    │
//   │ bounded     │ round of     │  patients' chunks step SIMD lockstep)  │
//   │ shard queue │ ≤8 patients' │  -> registry snapshot (per batch)      │
//   │ (x N)       │ chunks       │  -> classify_windows (prepare + kernel)│
//   └─────────────┘  (blocks)    │  -> ResultSink(batch)   ──────────────────> results
//                                └────────────────────────────────────────┘
//
// Shard assignment: a patient's shard is fibonacci_shard(id, num_workers()),
// a pure function of the id and the worker count. Every task for a patient
// — data chunks, end_stream and evict — goes to that one queue, and nothing
// ever moves a patient to another shard, so routing needs no table and no
// lock.
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
//    tasks share one FIFO queue and one worker);
//  * different patients' batches may be delivered concurrently from
//    different workers — the sink must be thread-safe across patients.
//
// Backpressure: each shard queue is bounded (EngineOptions::queue_capacity),
// and a push onto a full queue blocks until the worker drains it, so
// producers are throttled to pipeline throughput and no chunk is ever lost:
// every window keeps its place in the patient's stream. Control tasks
// (fences, end_stream, evict) bypass capacity, so flush() works even against
// saturated queues.
//
// The sink is the only way results leave the engine (construction throws
// without one). flush() is a pure fence: one control task to every shard,
// then a wait until each worker has reached its own — by then everything
// pushed before the call has been extracted, classified, and delivered to
// the sink.
//
// Hot-swap fencing: workers snapshot a patient's model for every workload
// from the registry once per classified batch, so an install() takes effect
// at the patient's next batch boundary — never mid-batch. The batch then
// goes through classify_windows, the classify step StreamClassifier runs
// too.
//
// Determinism: a patient's chunks are processed serially by one worker, in
// push order, through per-window arithmetic identical to the
// single-threaded StreamClassifier. Per-patient results are therefore
// bit-identical for ANY worker count, chunk interleaving, or flush cadence
// (asserted by tests/test_rt_shard.cpp and test_rt_continuous.cpp).
//
// Thread-safety contract: push_samples may be called from many threads
// concurrently (and blocks while the patient's shard queue is full);
// flush() must not run concurrently with another flush(). Registry installs
// are safe at any time from any thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "rt/engine.hpp"
#include "rt/model_registry.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/window_extractor.hpp"
#include "rt/work_queue.hpp"

namespace svt::rt {

/// The shard that serves a patient: a Fibonacci hash of the id, spreading
/// consecutive patient ids evenly across shards. Depends only on
/// (id, shard count).
inline std::size_t fibonacci_shard(int patient_id, std::size_t num_shards) {
  const auto h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(patient_id)) *
                 UINT64_C(0x9E3779B97F4A7C15);
  return static_cast<std::size_t>(h >> 32) % num_shards;
}

class ShardedStreamClassifier {
 public:
  /// Everything beyond the registry and stream config comes through
  /// rt::EngineOptions (worker count, queue sizing, sink). Throws
  /// std::invalid_argument on a null registry, a bad stream config (same
  /// rules as WindowExtractor), queue_capacity == 0, or an empty sink.
  ShardedStreamClassifier(std::shared_ptr<ModelRegistry> registry, StreamConfig config,
                          EngineOptions options);

  ~ShardedStreamClassifier();
  ShardedStreamClassifier(const ShardedStreamClassifier&) = delete;
  ShardedStreamClassifier& operator=(const ShardedStreamClassifier&) = delete;

  /// Route a chunk of raw ECG samples (mV) to the patient's shard, blocking
  /// while that shard's queue is full. Safe to call from multiple threads.
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
  /// memory for patients that left the ward — the registry entry is
  /// untouched.
  void evict_patient(int patient_id);

  /// Which shard (worker) serves a patient: fibonacci_shard(patient_id,
  /// num_workers()), fixed for the engine's lifetime.
  std::size_t shard_of(int patient_id) const { return fibonacci_shard(patient_id, shards_.size()); }

  std::size_t num_workers() const { return shards_.size(); }

  /// Every counter, summed over the shards. Any thread may call it at any
  /// time, without a fence: each worker publishes its counters after every
  /// round and stream end, so mid-stream a shard's share may be one round
  /// behind, and after flush() returns the snapshot is exact. Each field is
  /// monotone.
  EngineStats stats() const;

  /// stats().cache, for wardbench, which still calls it.
  features::SegmentCacheStats cache_stats() const { return stats().cache; }

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
  };

  struct Shard {
    explicit Shard(const StreamConfig& config, const EngineOptions& options)
        : tasks(options.queue_capacity),
          extractor(config),
          models(extractor.num_workloads()) {}
    WorkQueue<Task> tasks;
    // Touched only by the worker thread: the extractor, and the classify
    // step's staging, reused across batches so the serve hot loop is
    // allocation-free once warm.
    WindowExtractor extractor;
    ClassifyScratch scratch;
    std::vector<WindowResult> results;
    /// One batch's model snapshot, one slot per workload (null between
    /// batches).
    std::vector<std::shared_ptr<const ServableModel>> models;
    std::size_t delivered = 0;  ///< Windows this worker delivered (worker-only).
    /// The worker's counters as of its last task — the extractor's totals
    /// plus `delivered` — copied in by the worker after every round and
    /// stream end (fences and evictions change no counter) and read by
    /// stats(). Leaf lock, held only for the copy.
    std::mutex stats_mutex;
    EngineStats published;
    /// Recycled Task sample buffers: the worker returns each drained
    /// chunk's vector here and push_samples reuses it for the next
    /// chunk, so the steady-state ingest path stops allocating (and, more
    /// importantly, keeps re-copying into the same cache-warm pages instead
    /// of marching through fresh cold memory — a measured ~20x per-chunk
    /// cost swing when the queue is shallow). Leaf lock: never held with
    /// another lock.
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

  void worker_loop(Shard& shard);
  /// Copy the shard's current counters into its published slot.
  static void publish(Shard& shard);
  /// Snapshot the patient's model for every workload, run classify_windows
  /// and deliver the batch to the sink. Throws std::runtime_error when a
  /// workload has no model for the patient.
  void classify_batch(int patient_id, std::span<const ExtractedWindow> windows, Shard& shard);
  /// Return drained chunks' sample buffers to the shard's pool (up to
  /// kSamplePoolCap).
  static void recycle(Shard& shard, std::span<Task> tasks);

  std::shared_ptr<ModelRegistry> registry_;
  StreamConfig config_;
  EngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Fence protocol (guarded by fence_mutex_).
  std::mutex fence_mutex_;
  std::condition_variable fence_cv_;
  std::size_t fences_reached_ = 0;  ///< Shards done with the current fence.

  // First classification error since the last flush (guarded by error_mutex_).
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace svt::rt
