// Per-patient model serving with atomic hot-swap.
//
// The paper's deployment model is one *tailored* detector per patient; a
// serving runtime therefore needs a patient -> model map that can be updated
// while that patient's stream is live (a retrained or requantised detector
// arrives from the tailoring flow, or is loaded from disk). Two pieces:
//
//  * ServableModel — the library's one classifier: an immutable,
//    self-contained deployable unit, built from a tailored detector
//    (from_detector) or loaded from disk. It holds the tailored front half
//    (feature selection + scaler) plus one of two decision engines for the
//    paper's quadratic kernel, the only kernel it accepts: the bit-exact
//    fixed-point core::QuantizedModel when quantised, the packed float
//    rt::PackedModel otherwise. Immutability is what makes
//    hot-swap safe: classification threads only ever read a ServableModel
//    through a shared_ptr snapshot, so an in-flight batch keeps the model it
//    started with even if the registry entry is replaced mid-batch.
//
//  * ModelRegistry — the mutable patient -> shared_ptr<const ServableModel>
//    map (plus a cohort-wide default), guarded by a mutex. install() is the
//    hot-swap: it atomically replaces the pointer; the next resolve() serves
//    the new model. The continuous sharded engine resolves once per
//    classified batch, so a swap fences on the patient's next batch boundary
//    (never mid-batch) — flush() upgrades that to a hard fence. Old models
//    die when the last in-flight batch drops its snapshot. Every mutation
//    bumps generation(), a monotonic counter monitoring loops can poll to
//    detect swaps (e.g. the ROADMAP's swap-on-drift flow).
//
// ServableModel round-trips through the same text format as SvmModel
// (selection + scaler + float SVM + optional QuantizedModel), so a registry
// can be rebuilt from disk at startup without retraining or requantising.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/quantize.hpp"
#include "core/tailoring.hpp"
#include "rt/packed_model.hpp"
#include "svm/model.hpp"
#include "svm/scaler.hpp"

namespace svt::rt {

class ServableModel {
 public:
  /// Bundle a deployable model. `selected` are indices into the raw
  /// full-length feature vector; `scaler` must be fitted to that selection.
  /// When `quantized` is absent, the packed float engine is built up front.
  /// Throws std::invalid_argument if the model's kernel is not the quadratic
  /// polynomial, or the scaler/model feature counts disagree with the
  /// selection.
  ServableModel(std::vector<std::size_t> selected, svm::StandardScaler scaler,
                svm::SvmModel model, std::optional<core::QuantizedModel> quantized);

  /// Copy the deployable parts out of a tailored detector: the one bridge
  /// from training (core::tailor_detector) to classification.
  static ServableModel from_detector(const core::TailoredDetector& detector);

  /// The front half of classification: select this model's features from a
  /// raw full-length vector and scale them into `out` (resized; capacity
  /// reused across calls, so the serving hot loop allocates nothing once
  /// warm). Throws std::invalid_argument if the raw vector is too short.
  void prepare_row(std::span<const double> raw_features, std::vector<double>& out) const;

  /// The back half: decision values for prepared rows through this model's
  /// engine — the bit-exact fixed-point pipeline (dequantised accumulator)
  /// when quantised, else the packed float kernel. `out` is resized;
  /// `scratch` keeps the kernel's buffers across calls.
  void decision_values(std::span<const std::vector<double>> rows, std::vector<double>& out,
                       KernelScratch& scratch) const;

  const std::vector<std::size_t>& selected_features() const { return selected_; }
  const svm::StandardScaler& scaler() const { return scaler_; }
  const svm::SvmModel& model() const { return model_; }
  const std::optional<core::QuantizedModel>& quantized() const { return quantized_; }
  const std::optional<PackedModel>& packed() const { return packed_; }

  /// Text serialisation (round-trippable; the loaded engine is bit-identical,
  /// so deployments skip requantisation at startup). load() throws
  /// std::invalid_argument on corrupt input, including a non-quadratic
  /// kernel, and allocates only for the values it has read.
  void save(std::ostream& os) const;
  static ServableModel load(std::istream& is);

 private:
  std::vector<std::size_t> selected_;
  svm::StandardScaler scaler_;
  svm::SvmModel model_;
  std::optional<core::QuantizedModel> quantized_;
  std::optional<PackedModel> packed_;
};

/// Thread-safe (workload, patient) -> model map with a per-workload
/// default. Workload 0 is the primary pipeline (apnea in-tree); the
/// single-argument overloads address it, so pre-multi-workload callers are
/// source-compatible and serve exactly what they always served.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  /// Workload-0 cohort default.
  explicit ModelRegistry(ServableModel default_model);

  /// The fallback served to a workload's patients without a dedicated entry
  /// (null clears). The single-argument overload addresses workload 0.
  void set_default(std::shared_ptr<const ServableModel> model);
  void set_default(std::uint32_t workload, std::shared_ptr<const ServableModel> model);
  void set_default(std::uint32_t workload, ServableModel model);

  /// Install (or hot-swap) a patient's dedicated model for one workload.
  /// Atomic with respect to resolve(): concurrent lookups see either the
  /// old or the new model, never a partial state.
  void install(int patient_id, std::shared_ptr<const ServableModel> model);
  void install(int patient_id, ServableModel model);
  void install(std::uint32_t workload, int patient_id,
               std::shared_ptr<const ServableModel> model);
  void install(std::uint32_t workload, int patient_id, ServableModel model);

  /// Remove a patient's dedicated workload-0 / per-workload model (falls
  /// back to that workload's default).
  void erase(int patient_id);
  void erase(std::uint32_t workload, int patient_id);

  /// The model currently serving (workload, patient): the dedicated entry
  /// if one is installed, else the workload's default, else null.
  std::shared_ptr<const ServableModel> resolve(int patient_id) const;
  std::shared_ptr<const ServableModel> resolve(std::uint32_t workload, int patient_id) const;

  /// Dedicated (workload, patient) entries across all workloads.
  std::size_t num_patient_models() const;

  /// Monotonic mutation counter: incremented by every set_default, install,
  /// and erase. Equal generations imply no swap happened in between.
  std::uint64_t generation() const;

 private:
  /// (workload, patient): ordered so workload-contiguous iteration works.
  using Key = std::pair<std::uint32_t, int>;

  mutable std::mutex mutex_;
  std::map<std::uint32_t, std::shared_ptr<const ServableModel>> defaults_;
  std::map<Key, std::shared_ptr<const ServableModel>> models_;
  std::uint64_t generation_ = 0;
};

}  // namespace svt::rt
