// The extraction stage of the streaming pipeline, shared by every serving
// engine (single-threaded or sharded):
//
//   push_batch({patient, chunk}...)
//   ┌──────────────────────────┐ beats ┌───────────────────────────────────┐
//   │ lane packs: up to 8      │ ring  │ per-stride chunks (RR, EDR, Welch)│  sink(
//   │ patients' Pan-Tompkins   │ ────> │ -> memoized, assembled per window │ ─ ExtractedWindow)
//   │ chains in SIMD lockstep  │       │ -> raw features per workload      │
//   └──────────────────────────┘       └───────────────────────────────────┘
//
// Extraction is *incremental*: each raw sample runs through the online
// Pan-Tompkins chain exactly once as it arrives, and a window is assembled
// from per-stride chunk products (RR slice, EDR grid values, Welch segment
// periodograms) that features::SegmentFeatureCache builds once and reuses
// for every window covering the stride — overlapping windows therefore
// neither re-run the filter chain nor rebuild the products they share, and
// emission performs no heap allocation in steady state (one
// features::FeatureScratch per extractor, reused across every patient and
// window). The geometry must tile for this: the window is a whole number of
// strides and the stride a whole number of EDR grid points (the
// constructor rejects anything else).
//
// Patients stream at the same rate, so their identical filter chains run
// lane-parallel: patients are grouped into LaneQrsDetector packs (one
// patient per SIMD lane, two lanes per SSE2 instruction on x86-64),
// and push_batch steps every patient of a pack per instruction. Each lane
// is bit-identical to a dedicated scalar detector, so the emitted windows
// are byte-for-byte the same as the per-patient push_samples path — only
// faster when chunks for several patients arrive together. Lanes occupy
// fixed slots: patients joining or leaving (erase_patient / end_patient)
// never perturb other lanes' streams, a freed lane's ring storage stays
// pooled for the next same-pack patient, and a fully empty pack is
// released outright — resident detector memory is bounded by the number of
// concurrently active patients, not by patient churn.
//
// Because detection is causal with a bounded lookahead (the R-peak search
// runs behind the integrator), a window is emitted once the detector's
// finality frontier passes the window end — emission_lag_samples() (~190 ms
// at 250 Hz) after the last sample of the window arrives. Chunk products
// depend only on beat sample indices relative to the chunk start, so they
// are bit-identical wherever they are computed.
//
// The extractor is deliberately model-free: it emits *raw full-length*
// feature vectors, so per-patient models (which each carry their own feature
// selection and scaler) can be swapped without touching stream state. It is
// single-threaded by design — the sharded engine gives each worker thread
// its own extractor (and therefore its own scratch), which is what makes
// per-patient results independent of the thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "ecg/lane_qrs.hpp"
#include "ecg/quality.hpp"
#include "features/feature_scratch.hpp"
#include "features/feature_types.hpp"
#include "features/segment_cache.hpp"
#include "rt/engine.hpp"
#include "rt/workload.hpp"

namespace svt::rt {

struct StreamConfig {
  double fs_hz = 250.0;     ///< Raw ECG sampling rate.
  double window_s = 180.0;  ///< Analysis window length (paper: 3 minutes).
  double stride_s = 180.0;  ///< Hop between windows; < window_s overlaps.
  double edr_fs_hz = 4.0;   ///< Uniform EDR resampling rate.
  /// Windows with fewer beats than this are rejected (counted, not
  /// emitted): too few beats to rebuild the RR/EDR series.
  std::size_t min_beats = 4;
  /// Workloads served per window, indexed by position (the workload id on
  /// every result). Empty = exactly {apnea_workload()} as workload 0 — the
  /// back-compatible single-pipeline default. The per-patient substrate
  /// (beat ring, RR, EDR) is computed once per window regardless of how
  /// many workloads consume it. Every engine sharing a stream must use the
  /// same list (it is part of the stream semantics, like window_s).
  std::vector<std::shared_ptr<const Workload>> workloads;
  /// Streaming signal-quality gate between detection and windowing (off by
  /// default: zero per-sample work, bit-identical pipeline). Part of the
  /// stream semantics like the window geometry — the single-threaded and
  /// sharded engines agree exactly because they share this config.
  ecg::QualityConfig quality;
};

/// One fully extracted (but not yet classified) analysis window, for one
/// workload. A stream serving W workloads emits W of these per window
/// position, consecutively, in registration order.
struct ExtractedWindow {
  int patient_id = 0;
  double start_s = 0.0;       ///< Window start within the patient's stream.
  std::size_t num_beats = 0;  ///< R peaks inside the window.
  std::uint32_t workload = 0;  ///< Index into the stream's workload list.
  std::uint32_t quality = 0;   ///< ecg::quality_flags bitmask (0 = clean).
  /// Valid prefix of raw_features (the workload's num_features()).
  std::size_t num_features = features::kNumFeatures;
  /// Full-length, unselected, unscaled features (fixed-size: no heap).
  std::array<double, kMaxWorkloadFeatures> raw_features{};

  std::span<const double> features_view() const { return {raw_features.data(), num_features}; }
};

/// Receives each extracted window as soon as it is complete.
using WindowSink = std::function<void(ExtractedWindow&&)>;

class WindowExtractor {
 public:
  /// One patient's chunk in a push_batch round.
  struct PatientChunk {
    int patient_id = 0;
    std::span<const double> samples_mv;
  };

  /// Throws std::invalid_argument, naming the field, on a non-finite or
  /// non-positive fs_hz, window_s, stride_s or edr_fs_hz, or an edr_fs_hz
  /// above fs_hz. Also throws on stride_s > window_s, a window shorter than
  /// one sample or longer than 2^53 samples, a sampling rate too low for the
  /// QRS band-pass (fs_hz <= 30), or a geometry that does not tile: the
  /// window must be a whole number of strides and the stride a whole number
  /// of EDR grid points (see features::SegmentFeatureCache::plan). With the
  /// quality gate on, also throws what ecg::SignalQualityGate's constructor
  /// throws on config.quality.
  explicit WindowExtractor(StreamConfig config = {});

  /// Ingest one chunk per patient — the lane-parallel hot path. Patients
  /// sharing a pack are stepped in SIMD lockstep. `sink` fires for every
  /// window whose beats have become final, grouped per patient in chunk
  /// order. A first chunk creates the patient's stream (claiming a lane in
  /// the first pack with a free slot). Throws std::invalid_argument, before
  /// any state changes, when a patient id appears twice in one call.
  void push_batch(std::span<const PatientChunk> chunks, const WindowSink& sink);

  /// Single-patient convenience: exactly push_batch of one chunk.
  void push_samples(int patient_id, std::span<const double> samples_mv,
                    const WindowSink& sink);

  /// End a finite stream: flush the detector's tail (the batch detector's
  /// end-of-record semantics), emit every remaining window that has a full
  /// complement of samples — including the trailing windows the live-stream
  /// path holds back for emission_lag_samples() — then drop the patient's
  /// state. Returns whether the patient existed. Live monitoring streams
  /// never call this; offline/recorded sessions end with it so no full
  /// window is lost.
  bool end_patient(int patient_id, const WindowSink& sink);

  /// Drop a patient's stream state (detector lane, beat ring, window
  /// phase). Returns whether the patient existed. The freed lane's ring
  /// storage is pooled for the pack's next patient (an emptied pack is
  /// released), so long-running wards do not accumulate dead detector
  /// state. A later push recreates the stream from scratch (window phase
  /// restarts at 0). stats() keeps counting across evictions.
  bool erase_patient(int patient_id);

  /// Running totals over every patient this extractor has served, live or
  /// gone: rejected windows, lane occupancy, segment cache and quality gate.
  /// O(1) — each count is added as the work happens. delivered_windows
  /// stays 0; the engines fill it in.
  const EngineStats& stats() const { return stats_; }

  /// The resolved workload list (config.workloads, or the implicit
  /// single-apnea default). Stable for the extractor's lifetime.
  const std::vector<std::shared_ptr<const Workload>>& workloads() const { return workloads_; }
  std::size_t num_workloads() const { return workloads_.size(); }

  /// Samples accumulated toward a patient's next window (0 for unknown
  /// patients): samples pushed minus samples consumed by emitted windows.
  std::size_t buffered_samples(int patient_id) const;

  /// Detection lookahead: a window is emitted once this many samples past
  /// its end have been pushed (the online detector's finality lag).
  std::size_t emission_lag_samples() const { return emission_lag_samples_; }

  std::size_t num_patients() const { return patients_.size(); }
  std::size_t window_samples() const { return window_samples_; }
  std::size_t stride_samples() const { return stride_samples_; }
  const StreamConfig& config() const { return config_; }

  /// Detector ring/beat storage currently resident across all packs
  /// (including lanes pooled after eviction). Bounded by the number of
  /// concurrently active patients, independent of churn; 0 when no
  /// patients are live.
  std::size_t resident_detector_bytes() const;

 private:
  struct PatientState {
    std::size_t pack = 0;       ///< Index into packs_.
    std::size_t lane = 0;       ///< Lane slot within the pack.
    std::int64_t pushed = 0;    ///< Samples ingested so far.
    std::int64_t consumed = 0;  ///< Next window start (samples).
    /// Per-patient stride intermediates (never null). Bounded: one window of
    /// chunk entries + one window of segment periodograms.
    std::unique_ptr<features::SegmentFeatureCache> cache;
    /// Per-patient quality-gate state (null when the gate is off).
    std::unique_ptr<ecg::SignalQualityGate> gate;
  };

  PatientState& find_or_create(int patient_id);
  std::size_t claim_pack();  ///< Pack index with a free lane (first fit).
  void release_patient(PatientState& state);
  void emit_ready_windows(int patient_id, PatientState& state, std::int64_t frontier,
                          const WindowSink& sink);
  /// Assemble the window at state.consumed from its stride chunks, gate it
  /// (annotate or suppress), then run every registered workload over the
  /// substrate and sink one ExtractedWindow per workload.
  void emit_window(int patient_id, PatientState& state, const WindowSink& sink);

  StreamConfig config_;
  std::size_t window_samples_ = 0;
  std::size_t stride_samples_ = 0;
  std::size_t emission_lag_samples_ = 0;
  /// Lane packs of up to LaneQrsDetector::kMaxLanes patients stepped in
  /// lockstep. Null slots are reusable.
  std::vector<std::unique_ptr<ecg::LaneQrsDetector>> packs_;
  std::map<int, PatientState> patients_;
  EngineStats stats_;  ///< Running totals (see stats()).
  features::SegmentFeatureCache::Layout cache_layout_;  ///< Stride-chunk geometry.
  /// Resolved workload list: config_.workloads, or {apnea_workload()}.
  std::vector<std::shared_ptr<const Workload>> workloads_;

  // Per-extractor scratch (extractors are single-threaded): reused across
  // every patient and window, so steady-state emission never allocates.
  features::FeatureScratch scratch_;
  std::vector<ecg::LaneQrsDetector::LaneChunk> lane_chunks_;  ///< push_batch scratch.
};

}  // namespace svt::rt
