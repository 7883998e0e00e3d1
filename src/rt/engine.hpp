// Result and configuration types shared by the serving engines.
//
// rt::EngineOptions carries everything the sharded engine needs beyond the
// model registry and StreamConfig: worker count, queue sizing and
// backpressure, and the ResultSink that every classified window leaves
// through. CohortReplayer and net::ServeGateway take the same struct for the
// engine they embed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "ecg/quality.hpp"
#include "features/segment_cache.hpp"
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
  /// Where every classified window goes, as soon as its batch completes;
  /// required (engines throw std::invalid_argument at construction on an
  /// empty sink).
  ResultSink sink;
};

/// Every counter an engine exposes, all cumulative, answered by stats() on
/// both engines (WindowExtractor::stats() fills the extraction share).
struct EngineStats {
  std::size_t delivered_windows = 0;  ///< Results delivered (sink or flush()).
  std::size_t rejected_windows = 0;   ///< Windows with fewer than min_beats R peaks.
  std::size_t dropped_chunks = 0;     ///< Chunks evicted by kDropOldest.
  /// Live lane occupancy: detector samples stepped in SIMD lockstep / by
  /// the scalar per-lane step. Their sum is every sample extracted.
  std::uint64_t lane_vector_samples = 0;
  std::uint64_t lane_scalar_samples = 0;
  features::SegmentCacheStats cache;  ///< Per-stride feature memoization.
  /// Quality-gate counts (all zero when the gate is off); windows_* count
  /// window positions, not per-workload results.
  ecg::QualityStats quality;

  EngineStats& operator+=(const EngineStats& o) {
    delivered_windows += o.delivered_windows;
    rejected_windows += o.rejected_windows;
    dropped_chunks += o.dropped_chunks;
    lane_vector_samples += o.lane_vector_samples;
    lane_scalar_samples += o.lane_scalar_samples;
    cache += o.cache;
    quality += o.quality;
    return *this;
  }
};

}  // namespace svt::rt
