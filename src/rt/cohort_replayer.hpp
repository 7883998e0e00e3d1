// Cohort replay: stream a directory of WFDB records into the sharded engine.
//
// A recorded ward (a PhysioNet-style directory of records + RECORDS index)
// becomes a live multi-patient stream:
//
//   RECORDS ──> io::read_record ──> ECG channel, ADC -> mV
//        │  (per record: patient id from the trailing record number)
//        ▼
//   round-robin bounded chunks ──> ShardedStreamClassifier::push_samples
//        │   (chunk_s seconds per push; optional real-time pacing)       │
//        ▼                                                               ▼
//   end_stream(patient) at each record's end             ResultSink (caller's)
//   (flushes the detector tail so trailing windows
//    classify — no full window of a finite recording
//    is ever lost), then one terminal flush() fence
//
// Pacing: speed = 0 replays as fast as the pipeline accepts (throughput
// mode — the bench's replay_x_realtime metric); speed = k paces each
// record's chunks against the wall clock at k× real time (k = 1 simulates
// the live ward). Records replay concurrently, interleaved chunk by chunk
// in round-robin order — the arrival pattern of a telemetry gateway — and
// every record must carry a distinct patient id, so per-patient results are
// bit-identical to pushing that record's samples alone through the
// single-threaded StreamClassifier (asserted at 1/2/4 workers by
// tests/test_replay.cpp).
//
// Stats: per record, the replayer reports wall time to admit the record
// (first chunk push -> end_stream), the achieved real-time multiple, and
// the windows delivered for its patient; per cohort, the aggregate ×
// real-time rate and the segment-cache activity over the replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rt/sharded_classifier.hpp"

namespace svt::rt {

struct ReplayOptions {
  /// Real-time multiple for pacing; 0 = as fast as possible.
  double speed = 0.0;
  /// Seconds of signal pushed per chunk (bounds queue memory; the default
  /// matches the 4 s telemetry chunks used across the benches).
  double chunk_s = 4.0;
};

/// Replay outcome for one record.
struct RecordReplayStats {
  std::string record;
  int patient_id = 0;
  double duration_s = 0.0;   ///< Recorded signal length.
  std::size_t samples = 0;
  double wall_s = 0.0;       ///< Replay start -> this record fully admitted.
  double x_realtime = 0.0;   ///< duration_s / wall_s.
  std::size_t windows = 0;   ///< Windows delivered for this patient.
  bool skipped = false;      ///< Record not streamed (see skip_reason).
  std::string skip_reason;   ///< Why, e.g. a sampling-rate mismatch.
};

/// Replay outcome for the whole cohort (wall time includes the terminal
/// fence, so `windows` is the exact delivered count).
struct ReplayReport {
  std::vector<RecordReplayStats> records;
  double total_duration_s = 0.0;  ///< Sum of recorded lengths.
  double wall_s = 0.0;
  double x_realtime = 0.0;        ///< total_duration_s / wall_s.
  std::size_t windows = 0;
  std::size_t skipped_records = 0;  ///< Records skipped (per-record skip_reason).
  /// Segment-cache activity during this replay (delta over the engine's
  /// counters): how much per-stride feature work the overlapping windows
  /// reused instead of recomputing.
  features::SegmentCacheStats cache;
};

class CohortReplayer {
 public:
  /// Own a sharded engine serving `registry`, configured by
  /// rt::EngineOptions (workers, queues).
  /// Results are delivered through options.sink (same thread-safety
  /// contract as ShardedStreamClassifier); leave it empty to replay for the
  /// stats alone. The engine's own sink is the replayer's counting sink,
  /// which forwards to options.sink.
  explicit CohortReplayer(std::shared_ptr<ModelRegistry> registry, StreamConfig config = {},
                          EngineOptions options = {});

  /// Replay every record listed in `<dir>/RECORDS`.
  ReplayReport replay_directory(const std::string& dir, const ReplayOptions& options = {});

  /// Replay an explicit record list from `dir`. A record whose sampling
  /// rate disagrees with the stream config is skipped — reported in its
  /// RecordReplayStats (skipped/skip_reason) and counted in
  /// ReplayReport::skipped_records — rather than aborting the whole cohort:
  /// one mis-recorded monitor must not take the ward replay down. Throws
  /// std::invalid_argument on a non-finite or non-positive chunk_s, a chunk
  /// longer than 2^53 samples, a non-finite or negative speed, a name
  /// without a trailing record number, or duplicate patient ids. Each
  /// record streams its io::ecg_channel. Not reentrant: one replay at a
  /// time.
  ReplayReport replay_records(const std::string& dir, const std::vector<std::string>& names,
                              const ReplayOptions& options = {});

  /// Patient id of a record: its trailing decimal number ("p007" -> 7,
  /// "100" -> 100). Throws std::invalid_argument when there is none.
  static int patient_id_of(const std::string& record_name);

  ShardedStreamClassifier& engine() { return engine_; }
  const ShardedStreamClassifier& engine() const { return engine_; }

 private:
  std::mutex windows_mutex_;
  std::map<int, std::size_t> windows_per_patient_;
  ResultSink user_sink_;
  ShardedStreamClassifier engine_;  ///< Last: its sink captures the above.
};

/// A deterministic, training-free serving model over the full raw feature
/// vector (identity selection, seeded z-score scaler, random quantised
/// quadratic SVM). Fixture replays and benches use it so the classified
/// stream depends only on the seed — never on a training run — which is
/// what keeps the replay golden file stable across builds.
ServableModel synthetic_full_feature_model(std::uint64_t seed = 21);

/// Same idea over the AF-screening workload's 3-feature schema (rmssd
/// ratio, turning-point ratio, RR Shannon entropy): identity selection,
/// seeded scaler, random quantised quadratic SVM. Pairs with
/// rt::af_workload() in multi-workload fixtures and benches.
ServableModel synthetic_af_model(std::uint64_t seed = 43);

}  // namespace svt::rt
