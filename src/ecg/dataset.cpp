#include "ecg/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

namespace svt::ecg {

std::size_t Dataset::num_windows() const {
  std::size_t n = 0;
  for (const auto& s : sessions) n += s.windows.size();
  return n;
}

std::size_t Dataset::num_seizure_windows() const {
  std::size_t n = 0;
  for (const auto& s : sessions) {
    for (const auto& w : s.windows) {
      if (w.label > 0) ++n;
    }
  }
  return n;
}

std::vector<const WindowRecord*> Dataset::all_windows() const {
  std::vector<const WindowRecord*> out;
  out.reserve(num_windows());
  for (const auto& s : sessions) {
    for (const auto& w : s.windows) out.push_back(&w);
  }
  return out;
}

namespace {

/// Place `count` seizures in a session, keeping them clear of the session
/// edges and of each other (>= 2 windows apart), so that pre/post-ictal
/// ramps stay inside the session.
std::vector<SeizureEvent> place_seizures(int count, const DatasetParams& params,
                                         std::mt19937_64& rng) {
  std::vector<SeizureEvent> out;
  if (count <= 0) return out;
  const double duration = params.session_duration_s();
  // Keep one window clear at each edge when the session affords it; shrink
  // the margins (and the inter-seizure gap) for short sessions so small test
  // datasets remain generatable.
  double lo = std::min(params.window_s, duration * 0.15);
  double hi = duration - std::min(2.0 * params.window_s, duration * 0.3);
  if (hi <= lo) {
    lo = duration * 0.1;
    hi = duration * 0.9;
  }
  std::uniform_real_distribution<double> onset_dist(lo, hi);
  std::uniform_real_distribution<double> len_dist(60.0, 150.0);
  std::uniform_real_distribution<double> intensity_dist(0.55, 1.3);
  const double min_gap =
      std::min(2.0 * params.window_s + 180.0, (hi - lo) / static_cast<double>(count));

  int attempts = 0;
  while (static_cast<int>(out.size()) < count && attempts < 10000) {
    ++attempts;
    SeizureEvent candidate;
    candidate.onset_s = onset_dist(rng);
    candidate.duration_s = len_dist(rng);
    candidate.intensity = intensity_dist(rng);
    bool clear = true;
    for (const auto& s : out) {
      if (std::abs(s.onset_s - candidate.onset_s) < min_gap) {
        clear = false;
        break;
      }
    }
    if (clear) out.push_back(candidate);
  }
  if (static_cast<int>(out.size()) < count)
    throw std::invalid_argument("place_seizures: session too short for requested seizure count");
  std::sort(out.begin(), out.end(),
            [](const SeizureEvent& a, const SeizureEvent& b) { return a.onset_s < b.onset_s; });
  return out;
}

/// Scatter non-ictal arousal bursts over the session (Poisson-ish count).
std::vector<ArousalEvent> place_arousals(const PatientProfile& patient,
                                         const DatasetParams& params, std::mt19937_64& rng) {
  const double duration = params.session_duration_s();
  const double expected = patient.arousal_rate_per_hour * duration / 3600.0;
  std::poisson_distribution<int> count_dist(expected);
  std::uniform_real_distribution<double> onset_dist(0.0, duration);
  std::uniform_real_distribution<double> len_dist(40.0, 150.0);
  std::uniform_real_distribution<double> mag_dist(0.4, 1.0);
  const int count = count_dist(rng);
  std::vector<ArousalEvent> out;
  out.reserve(static_cast<std::size_t>(std::max(0, count)));
  for (int i = 0; i < count; ++i) {
    ArousalEvent ev;
    ev.onset_s = onset_dist(rng);
    ev.duration_s = len_dist(rng);
    ev.magnitude = mag_dist(rng);
    out.push_back(ev);
  }
  return out;
}

/// Scatter artifact episodes over the session.
std::vector<ArtifactEvent> place_artifacts(const PatientProfile& patient,
                                           const DatasetParams& params, std::mt19937_64& rng) {
  const double duration = params.session_duration_s();
  const double expected = patient.artifact_rate_per_hour * duration / 3600.0;
  std::poisson_distribution<int> count_dist(expected);
  std::uniform_real_distribution<double> onset_dist(0.0, duration);
  std::uniform_real_distribution<double> len_dist(20.0, 70.0);
  std::uniform_real_distribution<double> sev_dist(0.3, 1.0);
  const int count = count_dist(rng);
  std::vector<ArtifactEvent> out;
  out.reserve(static_cast<std::size_t>(std::max(0, count)));
  for (int i = 0; i < count; ++i) {
    ArtifactEvent ev;
    ev.onset_s = onset_dist(rng);
    ev.duration_s = len_dist(rng);
    ev.severity = sev_dist(rng);
    out.push_back(ev);
  }
  return out;
}

}  // namespace

Dataset generate_dataset(const DatasetParams& params) {
  if (params.num_sessions <= 0) throw std::invalid_argument("generate_dataset: num_sessions <= 0");
  if (params.windows_per_session <= 0)
    throw std::invalid_argument("generate_dataset: windows_per_session <= 0");
  if (params.window_s <= 0.0) throw std::invalid_argument("generate_dataset: window_s <= 0");
  if (params.total_seizures < 0)
    throw std::invalid_argument("generate_dataset: total_seizures < 0");

  Dataset ds;
  ds.patients = make_default_cohort();
  const int n_patients = static_cast<int>(ds.patients.size());

  // Distribute seizures round-robin so every session gets at least
  // floor(total/sessions); leftovers go to the first sessions.
  std::vector<int> seizure_counts(static_cast<std::size_t>(params.num_sessions),
                                  params.total_seizures / params.num_sessions);
  for (int i = 0; i < params.total_seizures % params.num_sessions; ++i)
    ++seizure_counts[static_cast<std::size_t>(i)];

  std::mt19937_64 master_rng(params.seed);

  for (int s = 0; s < params.num_sessions; ++s) {
    SessionRecord session;
    session.session_index = s;
    session.patient_id = s % n_patients;  // Sessions cycle through the cohort.
    session.duration_s = params.session_duration_s();

    // Per-session RNG derived from the master seed keeps sessions independent
    // of each other (and of windows_per_session) for reproducibility.
    std::mt19937_64 rng(master_rng());

    const auto& patient = ds.patients[static_cast<std::size_t>(session.patient_id)];
    session.seizures = place_seizures(seizure_counts[static_cast<std::size_t>(s)], params, rng);
    session.arousals = place_arousals(patient, params, rng);
    session.artifacts = place_artifacts(patient, params, rng);

    SessionSignalParams sig;
    sig.duration_s = session.duration_s;
    sig.respiration_fs_hz = params.respiration_fs_hz;
    SessionEvents events{session.seizures, session.arousals, session.artifacts};
    const auto rr = generate_rr_series(patient, events, sig, rng);
    const auto resp = generate_respiration(patient, events, sig, rng);

    session.windows.reserve(static_cast<std::size_t>(params.windows_per_session));
    for (int w = 0; w < params.windows_per_session; ++w) {
      WindowRecord rec;
      rec.patient_id = session.patient_id;
      rec.session_index = s;
      rec.start_s = w * params.window_s;
      const double end_s = rec.start_s + params.window_s;
      rec.label = -1;
      for (const auto& sz : session.seizures) {
        // A window is ictal if the seizure covers a meaningful part of it
        // (>= 30 s overlap), matching how clinical annotations are rolled
        // up to window labels.
        const double overlap = std::min(end_s, sz.end_s()) - std::max(rec.start_s, sz.onset_s);
        if (overlap >= 30.0) {
          rec.label = +1;
          break;
        }
      }
      rec.rr = slice_rr(rr, rec.start_s, end_s);
      rec.edr = slice_respiration(resp, rec.start_s, end_s);
      session.windows.push_back(std::move(rec));
    }
    ds.sessions.push_back(std::move(session));
  }
  return ds;
}

}  // namespace svt::ecg
