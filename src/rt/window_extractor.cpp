#include "rt/window_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "dsp/statistics.hpp"

namespace svt::rt {

namespace {

/// Segment-cached PSD source: applies the compute_psd_features gates to the
/// assembled window, then serves the averaged memoized periodograms.
class CachePsdSource final : public WindowPsdSource {
 public:
  CachePsdSource(features::SegmentFeatureCache& cache, std::int64_t m0,
                 std::span<const double> edr)
      : cache_(cache), m0_(m0), edr_(edr) {}

  const dsp::PsdEstimate* window_psd(features::FeatureScratch& scratch) override {
    if (edr_.size() < 32 || dsp::stddev_population(edr_) <= 0.0) return nullptr;
    return &cache_.window_psd(m0_, scratch.spectral);
  }

 private:
  features::SegmentFeatureCache& cache_;
  std::int64_t m0_;
  std::span<const double> edr_;
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

  // Emission runs per patient in chunk order, so each patient's windows
  // arrive contiguously and in stream order.
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
    emit_ready_windows(chunk.patient_id, state, packs_[state.pack]->final_through(state.lane),
                       sink);
  }
}

void WindowExtractor::push_samples(int patient_id, std::span<const double> samples_mv,
                                   const WindowSink& sink) {
  const PatientChunk chunk{patient_id, samples_mv};
  push_batch({&chunk, 1}, sink);
}

void WindowExtractor::emit_ready_windows(int patient_id, PatientState& state,
                                         std::int64_t frontier, const WindowSink& sink) {
  // A window [start, start + W) is complete once every beat that can fall
  // inside it is final — i.e. the frontier has passed its end.
  const auto window = static_cast<std::int64_t>(window_samples_);
  auto& detector = *packs_[state.pack];
  while (frontier >= state.consumed + window) {
    const features::SegmentCacheStats cache_before = state.cache->stats();
    emit_window(patient_id, state, sink);
    stats_.cache += state.cache->stats() - cache_before;
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

void WindowExtractor::emit_window(int patient_id, PatientState& state, const WindowSink& sink) {
  features::SegmentFeatureCache& cache = *state.cache;
  const auto& layout = cache.layout();
  const std::int64_t start = state.consumed;
  const std::int64_t m0 = start / layout.stride_samples;

  // Ensure every covered chunk's products (EDR values, RR slice, beat
  // count), then assemble the window by concatenation — at 6x overlap five
  // of the six chunks are already resident in steady state.
  const auto& ring = packs_[state.pack]->beats(state.lane);
  for (std::int64_t j = 0; j < layout.chunks_per_window; ++j) cache.chunk(ring, m0 + j);
  const auto view = cache.assemble_window(m0);
  if (view.beats < config_.min_beats || view.beats < 2) {
    ++stats_.rejected_windows;
    return;
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
        return;
      }
      ++stats_.quality.windows_annotated;
    }
  }

  // The substrate is built once and shared by every registered workload.
  // Its PSD source serves the average of the memoized per-segment
  // periodograms instead of re-running Welch over the window (applying
  // compute_psd_features' gates to the assembled EDR first).
  CachePsdSource psd_source(cache, m0, view.edr);
  WindowSubstrate substrate;
  substrate.rr_s = view.rr;
  substrate.edr = view.edr;
  substrate.edr_fs_hz = config_.edr_fs_hz;
  substrate.num_beats = view.beats;
  substrate.psd = &psd_source;
  for (std::uint32_t w = 0; w < workloads_.size(); ++w) {
    const Workload& workload = *workloads_[w];
    ExtractedWindow out;
    out.patient_id = patient_id;
    out.start_s = static_cast<double>(start) / config_.fs_hz;
    out.num_beats = view.beats;
    out.workload = w;
    out.quality = flags;
    out.num_features = workload.num_features();
    workload.extract(substrate, scratch_, {out.raw_features.data(), out.num_features});
    sink(std::move(out));
  }
}

bool WindowExtractor::end_patient(int patient_id, const WindowSink& sink) {
  const auto it = patients_.find(patient_id);
  if (it == patients_.end()) return false;
  PatientState& state = it->second;
  // finish() runs the remaining decisions with the batch detector's
  // end-of-record clamping, so every beat is final through the last sample.
  packs_[state.pack]->finish(state.lane);
  emit_ready_windows(patient_id, state, state.pushed, sink);
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
