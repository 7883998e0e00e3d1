// Synthetic clinical dataset: sessions, windows, labels.
//
// Mirrors the paper's data organisation: recordings are grouped into
// *sessions* (24 in the paper); each session is segmented into 3-minute
// windows; a window is labelled +1 if it overlaps an annotated seizure and
// -1 otherwise; cross-validation is leave-one-session-out (the paper's "24
// folds, where for each fold the ECG windows originating from a recording
// session are used as the test set and all others as the training set"),
// grouped by each window's session index (svm::cross_validate).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "ecg/patient.hpp"
#include "ecg/rr_model.hpp"

namespace svt::ecg {

/// One 3-minute analysis window with its physiological series and label.
struct WindowRecord {
  int patient_id = 0;
  int session_index = 0;   ///< Global session number (fold id).
  double start_s = 0.0;    ///< Window start within its session.
  int label = -1;          ///< +1 = ictal (seizure) window, -1 = interictal.
  RrSeries rr;             ///< Beat times relative to window start.
  RespirationSeries edr;   ///< Uniformly sampled EDR (ground-truth path).
};

/// One recording session (one cross-validation fold).
struct SessionRecord {
  int patient_id = 0;
  int session_index = 0;
  double duration_s = 0.0;
  std::vector<SeizureEvent> seizures;
  std::vector<ArousalEvent> arousals;    ///< Non-ictal autonomic confounders.
  std::vector<ArtifactEvent> artifacts;  ///< Signal-quality confounders.
  std::vector<WindowRecord> windows;
};

/// The full synthetic cohort dataset.
struct Dataset {
  std::vector<PatientProfile> patients;
  std::vector<SessionRecord> sessions;

  std::size_t num_windows() const;
  std::size_t num_seizure_windows() const;
  std::size_t num_sessions() const { return sessions.size(); }

  /// All windows flattened in session order.
  std::vector<const WindowRecord*> all_windows() const;
};

/// Generation parameters. Defaults give a paper-shaped cohort: 7 patients,
/// 24 sessions, 34 seizures, 3-minute windows. `windows_per_session` scales
/// total compute (the paper's 140 h correspond to ~116 windows/session; the
/// default here is sized so every bench runs in seconds -- raise it via the
/// SVT_WPS environment variable for full-scale runs).
struct DatasetParams {
  int num_sessions = 24;
  int total_seizures = 34;
  int windows_per_session = 30;
  double window_s = 180.0;
  double respiration_fs_hz = 4.0;
  std::uint64_t seed = 42;

  double session_duration_s() const { return windows_per_session * window_s; }
};

/// Generate the full cohort dataset. Deterministic in params.seed.
/// Throws std::invalid_argument on non-positive counts or durations, or if
/// the requested seizures cannot fit (more than 2 per session on average
/// would collide with the spacing constraints).
Dataset generate_dataset(const DatasetParams& params = {});

}  // namespace svt::ecg
