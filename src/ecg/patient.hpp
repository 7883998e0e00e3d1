// Patient and seizure modelling primitives.
//
// The paper's dataset is a proprietary clinical cohort (7 patients, 140 h,
// 34 focal seizures recorded across 24 sessions in an epilepsy monitoring
// unit) that is not publicly available. We substitute a physiologically
// motivated synthetic cohort: each patient has an individual cardiac
// baseline, an individual *ictal autonomic signature* (most patients exhibit
// ictal tachycardia, a minority ictal bradycardia -- this bimodality is what
// makes the detection problem non-linear, reproducing the paper's linear-vs-
// quadratic kernel gap), and per-session variability.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace svt::ecg {

/// Direction of the dominant ictal heart-rate response.
enum class IctalResponse : std::uint8_t { kTachycardia, kBradycardia };

/// A single annotated seizure (times relative to session start).
struct SeizureEvent {
  double onset_s = 0.0;
  double duration_s = 90.0;
  double intensity = 1.0;  ///< Scales the autonomic excursion (0.55..1.3).

  double end_s() const { return onset_s + duration_s; }

  /// True if [onset, end) overlaps the window [w_start, w_end).
  bool overlaps(double w_start_s, double w_end_s) const {
    return onset_s < w_end_s && w_start_s < end_s();
  }
};

/// A non-ictal autonomic arousal (movement, sleep-stage shift, stress):
/// a tachycardic burst that *confounds* seizure detection. These are what
/// keep the synthetic task's specificity away from 100%.
struct ArousalEvent {
  double onset_s = 0.0;
  double duration_s = 60.0;
  double magnitude = 1.0;  ///< In [0,1]; scales the patient's arousal response.

  double end_s() const { return onset_s + duration_s; }
};

/// A signal-quality artifact episode (electrode motion, mis-detected beats):
/// inflates beat-to-beat RR dispersion and drops occasional beats. Artifacts
/// attack exactly the dispersion features (SDNN, RMSSD, SD1...) that any HR
/// ramp also inflates, so a detector cannot ride "high dispersion" alone --
/// the property that keeps the linear kernel honest (paper Table I).
struct ArtifactEvent {
  double onset_s = 0.0;
  double duration_s = 30.0;
  double severity = 1.0;  ///< In [0,1].

  double end_s() const { return onset_s + duration_s; }
};

/// Static physiological description of one patient.
struct PatientProfile {
  int id = 0;
  std::string name;

  // --- Interictal (baseline) cardiac model -------------------------------
  double baseline_hr_bpm = 72.0;     ///< Resting heart rate.
  double hr_drift_sigma_bpm = 3.0;   ///< Std of the slow Ornstein-Uhlenbeck HR drift.
  double lf_amplitude_bpm = 2.5;     ///< Mayer-wave (~0.1 Hz) HR oscillation amplitude.
  double hf_amplitude_bpm = 1.8;     ///< Respiratory sinus arrhythmia amplitude.
  double rr_noise_sigma_s = 0.012;   ///< White beat-to-beat RR jitter.
  double ectopic_rate_per_min = 1.0; ///< Premature-beat (ectopic) rate.

  // --- Respiration model ---------------------------------------------------
  double resp_rate_hz = 0.25;        ///< Baseline respiratory frequency.
  double resp_amplitude = 1.0;       ///< Baseline respiration depth (arbitrary units).
  double resp_noise_sigma = 0.08;    ///< Additive respiration noise.

  // --- Arousal (confounder) model -------------------------------------------
  double arousal_rate_per_hour = 10.0; ///< Expected arousals per hour.
  double arousal_hr_delta_bpm = 22.0;  ///< Tachycardic burst magnitude.
  double arousal_hrv_suppression = 0.85;  ///< Mild HRV damping during arousals.
  double arousal_resp_rate_delta_hz = 0.04;

  // --- Artifact (signal-quality) model ---------------------------------------
  double artifact_rate_per_hour = 6.0;       ///< Expected artifact episodes/hour.
  double artifact_rr_noise_multiplier = 8.0; ///< RR jitter inflation at severity 1.
  double artifact_missed_beat_prob = 0.06;   ///< Per-beat drop probability at severity 1.

  // --- Ictal signature ------------------------------------------------------
  IctalResponse ictal_response = IctalResponse::kTachycardia;
  double ictal_hr_delta_bpm = 32.0;  ///< Magnitude of the ictal HR excursion.
  double ictal_hrv_suppression = 0.70;  ///< LF/HF amplitude multiplier during seizures.
  double ictal_resp_rate_delta_hz = 0.10;  ///< Respiratory-rate shift during seizures.
  double ictal_resp_irregularity = 0.25;   ///< Extra respiration amplitude variability
                                           ///  (near zero for vagal/bradycardic responders).
  double preictal_ramp_s = 30.0;     ///< Autonomic changes ramp in before clinical onset.
  double postictal_tau_s = 90.0;     ///< Exponential recovery time constant.

  /// Signed ictal HR excursion (+ for tachycardia, - for bradycardia).
  double signed_ictal_hr_delta_bpm() const {
    return ictal_response == IctalResponse::kTachycardia ? ictal_hr_delta_bpm
                                                         : -ictal_hr_delta_bpm;
  }
};

/// The seven-patient cohort used throughout the reproduction. Patients 5 and 6
/// are bradycardic responders; amplitudes/baselines vary across patients.
std::vector<PatientProfile> make_default_cohort();

}  // namespace svt::ecg
