#include "rt/window_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "dsp/ar_model.hpp"
#include "dsp/statistics.hpp"
#include "features/ar_features.hpp"

namespace svt::rt {

namespace {

/// Segment-cached PSD source: serves the averaged memoized periodograms of
/// the assembled window when compute_psd_features' gates (at least 32
/// values, not flat) passed for it.
class CachePsdSource final : public WindowPsdSource {
 public:
  CachePsdSource(features::SegmentFeatureCache& cache, std::int64_t m0, bool gate_passed)
      : cache_(cache), m0_(m0), gate_passed_(gate_passed) {}

  const dsp::PsdEstimate* window_psd(features::FeatureScratch& scratch) override {
    return gate_passed_ ? &cache_.window_psd(m0_, scratch.spectral) : nullptr;
  }

 private:
  features::SegmentFeatureCache& cache_;
  std::int64_t m0_;
  bool gate_passed_;
};

/// Empties a vector on scope exit. Around an emission it keeps a workload
/// or sink that throws from leaving a pending window whose views would
/// dangle.
template <class T>
struct ClearOnExit {
  std::vector<T>& values;
  ~ClearOnExit() { values.clear(); }
};

}  // namespace

WindowExtractor::WindowExtractor(StreamConfig config) : config_(config) {
  const auto require_positive = [](double value, const char* field) {
    if (!std::isfinite(value) || value <= 0.0)
      throw std::invalid_argument(std::string("WindowExtractor: ") + field +
                                  " must be finite and > 0");
  };
  require_positive(config.fs_hz, "fs_hz");
  require_positive(config.window_s, "window_s");
  require_positive(config.stride_s, "stride_s");
  require_positive(config.edr_fs_hz, "edr_fs_hz");
  if (config.stride_s > config.window_s)
    throw std::invalid_argument("WindowExtractor: stride_s > window_s leaves coverage gaps");
  if (config.edr_fs_hz > config.fs_hz)
    throw std::invalid_argument("WindowExtractor: edr_fs_hz above fs_hz");
  // Sample counts must round to integers exactly (and fit llround).
  if (config.window_s * config.fs_hz > 0x1p53)
    throw std::invalid_argument("WindowExtractor: window_s * fs_hz exceeds 2^53 samples");
  window_samples_ = static_cast<std::size_t>(std::llround(config.window_s * config.fs_hz));
  stride_samples_ = static_cast<std::size_t>(std::llround(config.stride_s * config.fs_hz));
  if (window_samples_ == 0 || stride_samples_ == 0)
    throw std::invalid_argument("WindowExtractor: window/stride shorter than one sample");
  // Probe detector: validates fs against the QRS band-pass up front (instead
  // of on the first push) and fixes the emission lookahead. Lane detectors
  // allocate nothing until a lane is claimed, so the probe is cheap.
  const ecg::LaneQrsDetector probe(config.fs_hz);
  emission_lag_samples_ = static_cast<std::size_t>(probe.finality_lag());
  // Windows are assembled from per-stride chunks, so the geometry must tile:
  // whole strides per window, whole EDR grid points per stride.
  const auto layout = features::SegmentFeatureCache::plan(
      config_.fs_hz, config_.edr_fs_hz, static_cast<std::int64_t>(stride_samples_),
      static_cast<std::int64_t>(window_samples_));
  if (!layout)
    throw std::invalid_argument(
        "WindowExtractor: window_s must be a whole number of strides and stride_s a whole "
        "number of EDR grid points (stride_s * edr_fs_hz integral)");
  cache_layout_ = *layout;
  // Resolve the workload list: empty = the single-apnea default (workload 0
  // is the paper's pipeline, bit-identical to the pre-workload engine).
  workloads_ = config_.workloads.empty()
                   ? std::vector<std::shared_ptr<const Workload>>{apnea_workload()}
                   : config_.workloads;
  for (const auto& workload : workloads_) {
    if (!workload) throw std::invalid_argument("WindowExtractor: null workload");
    const std::size_t n = workload->num_features();
    if (n == 0 || n > kMaxWorkloadFeatures)
      throw std::invalid_argument("WindowExtractor: workload feature count out of range");
  }
  // Validate the quality configuration up front (not on the first push):
  // the probe gate exercises the same checks every per-patient gate would.
  if (config_.quality.enable) {
    const ecg::SignalQualityGate quality_probe(config_.quality, config_.fs_hz);
    (void)quality_probe;
  }
}

std::size_t WindowExtractor::claim_pack() {
  // First-fit pack selection keeps lanes densely occupied: an existing pack
  // with a free lane, else a released pack slot, else a new pack.
  std::size_t pack_idx = packs_.size();
  for (std::size_t i = 0; i < packs_.size(); ++i) {
    if (packs_[i] && packs_[i]->free_lanes() > 0) {
      pack_idx = i;
      break;
    }
  }
  if (pack_idx == packs_.size()) {
    for (std::size_t i = 0; i < packs_.size(); ++i) {
      if (!packs_[i]) {
        pack_idx = i;
        break;
      }
    }
    if (pack_idx == packs_.size()) packs_.emplace_back();
    packs_[pack_idx] = std::make_unique<ecg::LaneQrsDetector>(config_.fs_hz);
  }
  return pack_idx;
}

WindowExtractor::PatientState& WindowExtractor::find_or_create(int patient_id) {
  auto it = patients_.find(patient_id);
  if (it != patients_.end()) return it->second;
  PatientState state;
  state.pack = claim_pack();
  state.lane = packs_[state.pack]->add_lane();
  state.cache = std::make_unique<features::SegmentFeatureCache>(cache_layout_);
  if (config_.quality.enable)
    state.gate = std::make_unique<ecg::SignalQualityGate>(config_.quality, config_.fs_hz);
  return patients_.emplace(patient_id, std::move(state)).first->second;
}

void WindowExtractor::release_patient(PatientState& state) {
  auto& pack = packs_[state.pack];
  pack->remove_lane(state.lane);
  // Last occupant gone: release the pack's ring storage outright, so
  // resident memory tracks live patients rather than historical churn.
  if (pack->active_lanes() == 0) pack.reset();
}

void WindowExtractor::push_batch(std::span<const PatientChunk> chunks, const WindowSink& sink) {
  // Checked before any state is touched: a repeated id would hand one lane
  // two chunks in a round, and a rejected batch must leave no new patient.
  for (std::size_t i = 1; i < chunks.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (chunks[i].patient_id == chunks[j].patient_id)
        throw std::invalid_argument("WindowExtractor::push_batch: patient " +
                                    std::to_string(chunks[i].patient_id) +
                                    " appears twice in one batch");
  for (const auto& chunk : chunks) find_or_create(chunk.patient_id);

  // Step each involved pack once, with every one of its patients' chunks in
  // lockstep.
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const std::size_t pack_idx = patients_.find(chunks[i].patient_id)->second.pack;
    bool first_for_pack = true;
    for (std::size_t j = 0; j < i; ++j) {
      if (patients_.find(chunks[j].patient_id)->second.pack == pack_idx) {
        first_for_pack = false;
        break;
      }
    }
    if (!first_for_pack) continue;
    lane_chunks_.clear();
    for (std::size_t j = i; j < chunks.size(); ++j) {
      const PatientState& state = patients_.find(chunks[j].patient_id)->second;
      if (state.pack == pack_idx) lane_chunks_.push_back({state.lane, chunks[j].samples_mv});
    }
    auto& detector = *packs_[pack_idx];
    const std::uint64_t vector_before = detector.vector_samples();
    const std::uint64_t scalar_before = detector.scalar_samples();
    detector.push(lane_chunks_);
    stats_.lane_vector_samples += detector.vector_samples() - vector_before;
    stats_.lane_scalar_samples += detector.scalar_samples() - scalar_before;
  }

  // Every patient's bookkeeping catches up with its detector before any
  // window is emitted, so a workload or sink that throws below cannot leave
  // a patient's sample count behind its lane.
  for (const auto& chunk : chunks) {
    PatientState& state = patients_.find(chunk.patient_id)->second;
    // Quality gate: scan the raw chunk at its absolute stream offset. The
    // scan is per-sample sequential state only, so the resulting spans are
    // independent of chunk boundaries.
    if (state.gate) {
      const ecg::QualityStats before = state.gate->stats();
      state.gate->scan(chunk.samples_mv, state.pushed);
      stats_.quality += state.gate->stats() - before;
    }
    state.pushed += static_cast<std::int64_t>(chunk.samples_mv.size());
  }

  // Emission runs in two phases. Each patient, in chunk order, assembles
  // and gates its ready windows; then emit_pending fits their AR models in
  // pairs and runs the workloads and the sink over them in that order, so
  // each patient's windows arrive contiguously and in stream order.
  const ClearOnExit<PendingWindow> clear{pending_};
  for (const auto& chunk : chunks) {
    PatientState& state = patients_.find(chunk.patient_id)->second;
    queue_ready_windows(chunk.patient_id, state, packs_[state.pack]->final_through(state.lane),
                        sink);
  }
  emit_pending(sink);
}

void WindowExtractor::push_samples(int patient_id, std::span<const double> samples_mv,
                                   const WindowSink& sink) {
  const PatientChunk chunk{patient_id, samples_mv};
  push_batch({&chunk, 1}, sink);
}

void WindowExtractor::queue_ready_windows(int patient_id, PatientState& state,
                                          std::int64_t frontier, const WindowSink& sink) {
  // A window [start, start + W) is complete once every beat that can fall
  // inside it is final — i.e. the frontier has passed its end.
  const auto window = static_cast<std::int64_t>(window_samples_);
  auto& detector = *packs_[state.pack];
  bool queued = false;
  while (frontier >= state.consumed + window) {
    // The patient's next assembly overwrites the views (and may evict the
    // chunks) of the window it queued last: emit the batch first.
    if (queued) emit_pending(sink);
    queued = queue_window(patient_id, state);
    state.consumed += static_cast<std::int64_t>(stride_samples_);
    // The chunked pipeline keeps one stride of left context behind the next
    // window (a chunk at m interpolates from beats in [(m-1)*S, (m+1)*S)).
    const std::int64_t retain = state.consumed - static_cast<std::int64_t>(stride_samples_);
    detector.drop_beats_before(state.lane, retain);
    // Artifact spans behind the retained horizon can never overlap a future
    // window; drop them so span memory tracks the window, not the stream.
    if (state.gate) state.gate->drop_spans_before(retain);
  }
}

bool WindowExtractor::queue_window(int patient_id, PatientState& state) {
  features::SegmentFeatureCache& cache = *state.cache;
  const auto& layout = cache.layout();
  const std::int64_t start = state.consumed;
  const std::int64_t m0 = start / layout.stride_samples;

  // Ensure every covered chunk's products (EDR values, RR slice, beat
  // count), then assemble the window by concatenation — at 6x overlap five
  // of the six chunks are already resident in steady state.
  const features::SegmentCacheStats cache_before = cache.stats();
  const auto& ring = packs_[state.pack]->beats(state.lane);
  for (std::int64_t j = 0; j < layout.chunks_per_window; ++j) cache.chunk(ring, m0 + j);
  const auto view = cache.assemble_window(m0);
  stats_.cache += cache.stats() - cache_before;
  if (view.beats < config_.min_beats || view.beats < 2) {
    ++stats_.rejected_windows;
    return false;
  }

  // Quality gating happens once per window position, before any workload
  // runs: every workload of a suppressed window is withheld together, and
  // an annotated window carries the same flags on every workload's result.
  std::uint32_t flags = 0;
  if (state.gate) {
    const std::int64_t end = start + static_cast<std::int64_t>(window_samples_);
    if (state.gate->overlaps_artifact(start, end)) flags |= ecg::quality_flags::kArtifact;
    const std::size_t outliers = ecg::count_rr_outliers(view.rr, config_.quality);
    if (outliers > 0) {
      stats_.quality.rr_outliers += outliers;
      flags |= ecg::quality_flags::kRrOutliers;
    }
    if (flags != 0) {
      if (config_.quality.policy == ecg::QualityPolicy::kSuppress) {
        ++stats_.quality.windows_suppressed;
        return false;
      }
      ++stats_.quality.windows_annotated;
    }
  }

  // The flatness test is shared by the AR and the PSD gates (the
  // assembled EDR is never empty).
  const bool flat = dsp::stddev_population(view.edr) <= 0.0;
  PendingWindow& pending = pending_.emplace_back();
  pending.patient_id = patient_id;
  pending.cache = &cache;
  pending.start = start;
  pending.flags = flags;
  pending.view = view;
  pending.fit_ar = features::ar_fit_gate(view.edr.size(), flat);
  pending.psd_gate = view.edr.size() >= 32 && !flat;
  return true;
}

void WindowExtractor::emit_pending(const WindowSink& sink) {
  // Fit the AR models of the windows that pass the gate two at a time, in
  // queue order; an odd one out runs in both lanes. Every window of one
  // extractor has the same EDR length, so any two pair up.
  PendingWindow* lone = nullptr;
  const auto fit = [this](PendingWindow& w0, PendingWindow& w1) {
    dsp::ar_burg(w0.view.edr, w1.view.edr, features::kArOrder, scratch_.burg);
    const auto& a0 = scratch_.burg.model[0].coefficients;
    const auto& a1 = scratch_.burg.model[1].coefficients;
    std::copy(a0.begin(), a0.end(), w0.ar.begin());
    std::copy(a1.begin(), a1.end(), w1.ar.begin());
  };
  for (PendingWindow& window : pending_) {
    if (!window.fit_ar) continue;
    if (lone == nullptr) {
      lone = &window;
    } else {
      fit(*lone, window);
      lone = nullptr;
    }
  }
  if (lone != nullptr) fit(*lone, *lone);

  // The substrate is built once per window and shared by every registered
  // workload. Its PSD source serves the average of the memoized per-segment
  // periodograms instead of re-running Welch over the window.
  for (PendingWindow& window : pending_) {
    features::SegmentFeatureCache& cache = *window.cache;
    const features::SegmentCacheStats cache_before = cache.stats();
    CachePsdSource psd_source(cache, window.start / cache.layout().stride_samples,
                              window.psd_gate);
    WindowSubstrate substrate;
    substrate.rr_s = window.view.rr;
    substrate.edr = window.view.edr;
    substrate.edr_fs_hz = config_.edr_fs_hz;
    substrate.num_beats = window.view.beats;
    substrate.ar = window.ar;
    substrate.psd = &psd_source;
    for (std::uint32_t w = 0; w < workloads_.size(); ++w) {
      const Workload& workload = *workloads_[w];
      ExtractedWindow out;
      out.patient_id = window.patient_id;
      out.start_s = static_cast<double>(window.start) / config_.fs_hz;
      out.num_beats = window.view.beats;
      out.workload = w;
      out.quality = window.flags;
      out.num_features = workload.num_features();
      workload.extract(substrate, scratch_, {out.raw_features.data(), out.num_features});
      sink(std::move(out));
    }
    stats_.cache += cache.stats() - cache_before;
  }
  pending_.clear();
}

bool WindowExtractor::end_patient(int patient_id, const WindowSink& sink) {
  const auto it = patients_.find(patient_id);
  if (it == patients_.end()) return false;
  PatientState& state = it->second;
  // finish() runs the remaining decisions with the batch detector's
  // end-of-record clamping, so every beat is final through the last sample.
  packs_[state.pack]->finish(state.lane);
  {
    const ClearOnExit<PendingWindow> clear{pending_};
    queue_ready_windows(patient_id, state, state.pushed, sink);
    emit_pending(sink);
  }
  release_patient(state);
  patients_.erase(it);
  return true;
}

bool WindowExtractor::erase_patient(int patient_id) {
  const auto it = patients_.find(patient_id);
  if (it == patients_.end()) return false;
  release_patient(it->second);
  patients_.erase(it);
  return true;
}

std::size_t WindowExtractor::buffered_samples(int patient_id) const {
  const auto it = patients_.find(patient_id);
  return it == patients_.end() ? 0
                               : static_cast<std::size_t>(it->second.pushed - it->second.consumed);
}

std::size_t WindowExtractor::resident_detector_bytes() const {
  std::size_t total = 0;
  for (const auto& pack : packs_)
    if (pack) total += pack->resident_bytes();
  return total;
}

}  // namespace svt::rt
