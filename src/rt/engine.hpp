// The unified serving-engine surface: one options struct and one minimal
// interface shared by every entry point.
//
// Before this header, the runtime grew three parallel 5-argument
// constructor stacks (ShardedStreamClassifier, CohortReplayer, ServeGateway)
// that could not gain a scheduler knob without breaking every caller. Now:
//
//  * rt::EngineOptions carries everything an engine needs beyond the model
//    registry and StreamConfig — worker count, queue sizing/backpressure,
//    placement policy, work stealing, deadline mode, and the result sink —
//    and is consumed uniformly by all three entry points.
//
//  * rt::Engine is the minimal interface a driver needs to stream against
//    (push_samples / end_stream / flush / stats), implemented by both the
//    single-threaded StreamClassifier (the determinism oracle) and the
//    sharded ShardedStreamClassifier, so loadgen --direct, the cohort
//    replayer, and the gateway program against the interface instead of a
//    concrete engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "rt/placement.hpp"
#include "rt/work_queue.hpp"

namespace svt::rt {

/// One classified window, for one workload. A stream serving W workloads
/// yields W results per window position, sharing (patient_id, start_s) and
/// distinguished by `workload`.
struct WindowResult {
  int patient_id = 0;
  double start_s = 0.0;         ///< Window start within the patient's stream.
  double decision_value = 0.0;  ///< Float (or dequantised fixed-point) f(x).
  int label = 0;                ///< +1 = positive class, -1 = negative.
  std::size_t num_beats = 0;    ///< R peaks detected in the window.
  std::uint32_t workload = 0;   ///< Index into the stream's workload list.
  std::uint32_t quality = 0;    ///< ecg::quality_flags bitmask (0 = clean).
};

/// Receives classified windows as soon as a patient's batch completes. Each
/// call is one patient's windows in time order; calls for one patient are in
/// stream order; calls for different patients may be concurrent.
using ResultSink = std::function<void(std::span<const WindowResult>)>;

/// Work-stealing knobs (sharded engine only). Off by default: stealing
/// moves patients between shards, so shard_of() answers are only stable
/// while it is disabled.
struct StealConfig {
  bool enable = false;
  /// An idle worker only steals a patient with at least this many queued
  /// tasks on the victim (stealing a nearly-drained patient is churn).
  std::size_t min_backlog = 2;
};

/// Deadline mode (sharded engine only): a periodic controller watches the
/// rolling p99 of delivery_latencies_s() against target_p99_s and degrades
/// *before* breach — first widening the effective window stride (x2, then
/// x4: fewer overlapping windows per sample), then forcing drop-oldest
/// shedding on the shard queues — and backs off symmetrically once the tail
/// recovers. Every action is counted in SchedulerStats. The final shedding
/// level evicts against the (always bounded) shard queue capacity.
struct DeadlineConfig {
  double target_p99_s = 0.0;  ///< 0 disables the controller.
  double poll_interval_s = 0.05;
  /// Degrade one level when rolling p99 exceeds arm_fraction * target
  /// (acting at the target itself would already be a breach).
  double arm_fraction = 0.8;
  /// Recover one level after recover_polls consecutive polls with p99 below
  /// recover_fraction * target.
  double recover_fraction = 0.5;
  int recover_polls = 4;
};

/// Everything an engine needs beyond the registry and stream config,
/// consumed uniformly by ShardedStreamClassifier, CohortReplayer, and
/// net::ServeGateway.
struct EngineOptions {
  /// Maximum raw-sample chunks queued per shard; must be > 0 (engines throw
  /// std::invalid_argument at construction on 0).
  std::size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Worker threads / shards (clamped to >= 1).
  std::size_t num_workers = 1;
  /// Patient -> shard assignment; null = FibonacciPlacement.
  std::shared_ptr<PlacementPolicy> placement;
  StealConfig stealing;
  DeadlineConfig deadline;
  /// Continuous delivery sink; empty = collect for flush() (legacy mode).
  ResultSink sink;
};

/// Scheduler counters (all zero on the single-threaded engine and whenever
/// stealing/deadline mode are off).
struct SchedulerStats {
  std::size_t steals = 0;            ///< Migration requests issued.
  std::size_t migrations = 0;        ///< Patients actually re-homed.
  std::size_t migrated_chunks = 0;   ///< Queued tasks moved victim -> thief.
  std::size_t stride_widenings = 0;  ///< Deadline stride escalations.
  std::size_t shed_activations = 0;  ///< Times forced shedding switched on.
  std::size_t shed_chunks = 0;       ///< Chunks dropped by forced shedding.
  std::size_t deadline_level = 0;    ///< Current degradation level (0 = none).
};

/// Uniform counters every engine can answer.
struct EngineStats {
  std::size_t delivered_windows = 0;
  std::size_t rejected_windows = 0;
  std::size_t dropped_chunks = 0;
  /// Quality-gate outcomes (both zero when the gate is off): window
  /// positions emitted with non-zero quality flags / withheld by the
  /// suppress policy. Counted per window position, not per workload.
  std::size_t windows_annotated = 0;
  std::size_t windows_suppressed = 0;
  SchedulerStats scheduler;
};

/// The minimal surface a streaming driver needs. Implementations document
/// their own threading contracts; the single-threaded StreamClassifier is
/// the bit-exactness oracle the sharded implementation is tested against.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Ingest one patient's chunk of raw ECG samples (mV).
  virtual void push_samples(int patient_id, std::span<const double> samples_mv) = 0;

  /// End a finite patient stream (classifies the held-back trailing
  /// windows). Returns whether the patient was known — asynchronous
  /// implementations that cannot know yet return true.
  virtual bool end_stream(int patient_id) = 0;

  /// Classify/deliver everything ingested so far. Returns the pending
  /// results when the engine collects (no sink); empty when a sink already
  /// delivered them continuously.
  virtual std::vector<WindowResult> flush() = 0;

  virtual EngineStats stats() const = 0;
};

}  // namespace svt::rt
