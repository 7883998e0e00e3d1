// Pluggable per-window workloads over the shared extraction substrate.
//
// The runtime used to be hardwired to one pipeline: the fixed 53-feature
// apnea vector was baked into ExtractedWindow, WindowResult, ServableModel
// resolution and the net result frame. A Workload generalises the
// per-window half of the pipeline: it owns its feature *schema* (count +
// names) and its extraction hook over the per-patient substrate the
// extractor computes ONCE per window regardless of how many workloads
// consume it — the window's RR tachogram, its uniform EDR series, the
// Burg AR fit of that series, and the memoized window PSD, all assembled
// from segment-cached stride chunks:
//
//                      ┌ Workload 0 (apnea, 53) ─> ExtractedWindow{w=0}
//   beat ring ─> RR ───┤
//            └─> EDR ──┴ Workload 1 (AF,     3) ─> ExtractedWindow{w=1}
//                 └─> AR fit, PSD (read by workload 0)
//
// The AR fit is the one product the extractor computes before any workload
// runs: it fits the windows of one push_batch / end_patient call two at a
// time (dsp::ar_burg's lanes), so the fits of two patients share each SSE2
// instruction. It fits every window that passes the AR gate, whichever
// workloads the stream serves.
//
// What a workload does NOT own: windowing (geometry is per stream, shared),
// QRS detection, the quality gate, or classification back ends — models are
// resolved per (workload, patient) from the ModelRegistry, so the servable
// classifier family of a workload is simply its column of the registry.
//
// Bit-exactness contract: a config whose `workloads` list is empty serves
// exactly {apnea_workload()} as workload 0, and ApneaWorkload::extract runs
// the same span-based kernels (and the same AR and PSD gates) as the
// dataset path's extract_features, on the substrate's series — so the
// features of a series do not depend on which path, or which Burg lane,
// computed them.
// Extraction hooks must be pure (no per-call state beyond the scratch):
// workloads are shared across shards and threads by const pointer.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "dsp/spectral.hpp"
#include "features/feature_scratch.hpp"

namespace svt::rt {

/// Upper bound on any workload's per-window feature count: keeps
/// ExtractedWindow fixed-size (no heap in the emission hot path). The apnea
/// vector (53) is the largest in-tree schema.
inline constexpr std::size_t kMaxWorkloadFeatures = 64;

/// Lazily provides the window's Welch PSD (the average of the memoized
/// per-segment periodograms). Returns null when the PSD gates fail (series
/// shorter than one Welch segment minimum, or constant), in which case the
/// consumer keeps its zero-filled defaults — the same semantics as
/// compute_psd_features' early-outs.
class WindowPsdSource {
 public:
  virtual ~WindowPsdSource() = default;
  virtual const dsp::PsdEstimate* window_psd(features::FeatureScratch& scratch) = 0;
};

/// The per-window inputs every workload extracts from, assembled once per
/// window by the extractor. Spans point into extractor-owned scratch: valid
/// for the duration of one extract() call only.
struct WindowSubstrate {
  std::span<const double> rr_s;  ///< RR intervals [s], window-local.
  std::span<const double> edr;   ///< Uniform mean-removed EDR series.
  double edr_fs_hz = 0.0;
  std::size_t num_beats = 0;     ///< R peaks inside the window.
  /// The Burg AR(features::kArOrder) coefficients a1..a9 of `edr`, all zero
  /// where features::ar_fit_gate fails; always set by the extractor.
  std::span<const double> ar;
  /// The window's PSD; always set by the extractor.
  WindowPsdSource* psd = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Stable identifier ("apnea", "af"): negotiated over the wire and used
  /// in bench metric names.
  virtual const char* name() const = 0;

  /// Schema: how many features extract() writes, and what each is called.
  /// num_features() must be in [1, kMaxWorkloadFeatures] and constant for
  /// the object's lifetime.
  virtual std::size_t num_features() const = 0;
  virtual std::string feature_name(std::size_t index) const = 0;

  /// Fill `out` (exactly num_features() long) from the substrate. Must be
  /// pure and thread-compatible: called concurrently from different workers
  /// with distinct scratches.
  virtual void extract(const WindowSubstrate& substrate, features::FeatureScratch& scratch,
                       std::span<double> out) const = 0;
};

/// The paper's apnea pipeline as a workload: the full 53-feature vector
/// (8 HRV + 7 Lorentz + 9 AR + 29 PSD), bit-identical to the pre-workload
/// extractor.
std::shared_ptr<const Workload> apnea_workload();

/// AF screening from the same RR series: {rmssd_ratio, turning_point_ratio,
/// shannon_entropy} (see features/af_features.hpp for the NaN edge
/// contract).
std::shared_ptr<const Workload> af_workload();

}  // namespace svt::rt
