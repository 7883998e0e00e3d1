#include "features/segment_cache.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "dsp/resample.hpp"

namespace svt::features {

std::optional<SegmentFeatureCache::Layout> SegmentFeatureCache::plan(
    double fs_hz, double edr_fs_hz, std::int64_t stride_samples, std::int64_t window_samples) {
  if (fs_hz <= 0.0 || edr_fs_hz <= 0.0 || stride_samples <= 0 || window_samples <= 0)
    return std::nullopt;
  if (window_samples % stride_samples != 0) return std::nullopt;
  // The EDR grid must advance an integral number of points per stride so
  // chunk-local grid times are stride-invariant, and no faster than the raw
  // samples (which also keeps the count in int64_t range; NaN fails too).
  const double chunk_len_d = static_cast<double>(stride_samples) * edr_fs_hz / fs_hz;
  if (!(chunk_len_d >= 1.0 && chunk_len_d <= static_cast<double>(stride_samples)) ||
      chunk_len_d != std::floor(chunk_len_d))
    return std::nullopt;

  Layout layout;
  layout.fs_hz = fs_hz;
  layout.edr_fs_hz = edr_fs_hz;
  layout.stride_samples = stride_samples;
  layout.window_samples = window_samples;
  layout.chunk_len = static_cast<std::int64_t>(chunk_len_d);
  layout.chunks_per_window = window_samples / stride_samples;
  // Welch segment: the largest multiple of the chunk length that fits
  // welch_psd's default 256-point segment, clamped to the window; hop is one
  // chunk, so a segment periodogram is shared by every window covering it.
  layout.seg_chunks =
      std::clamp<std::int64_t>(std::int64_t{256} / layout.chunk_len, 1, layout.chunks_per_window);
  layout.num_segments = layout.chunks_per_window - layout.seg_chunks + 1;
  return layout;
}

SegmentFeatureCache::SegmentFeatureCache(const Layout& layout) : layout_(layout) {
  SVT_ASSERT(layout_.chunks_per_window >= 1 && layout_.chunk_len >= 1 &&
             layout_.num_segments >= 1);
  chunks_.resize(static_cast<std::size_t>(layout_.chunks_per_window));
  welch_.resize(static_cast<std::size_t>(layout_.num_segments));
}

const SegmentFeatureCache::Chunk& SegmentFeatureCache::chunk(const ecg::BeatRing& ring,
                                                             std::int64_t m) {
  SVT_ASSERT(m >= 0);
  Chunk& c = slot(m);
  if (c.index == m) {
    ++stats_.hits;
    return c;
  }
  if (c.index != -1 && c.index != m) ++stats_.evictions;
  ++stats_.misses;
  build_chunk(ring, m, c);
  return c;
}

void SegmentFeatureCache::build_chunk(const ecg::BeatRing& ring, std::int64_t m, Chunk& out) {
  const std::int64_t S = layout_.stride_samples;
  const std::int64_t lo = (m - 1) * S;  // One stride of left context.
  const std::int64_t seg_lo = m * S;
  const std::int64_t hi = (m + 1) * S;
  beat_t_.clear();
  beat_a_.clear();
  beat_i_.clear();
  std::size_t in_seg = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const ecg::Beat& b = ring[i];
    if (b.sample_index < lo) continue;
    if (b.sample_index >= hi) break;
    beat_i_.push_back(b.sample_index);
    beat_t_.push_back(static_cast<double>(b.sample_index - seg_lo) / layout_.fs_hz);
    beat_a_.push_back(b.amplitude_mv);
    if (b.sample_index >= seg_lo) ++in_seg;
  }
  out.index = m;
  out.beats = in_seg;
  out.rr.clear();
  out.rr_from.clear();
  for (std::size_t j = 1; j < beat_i_.size(); ++j) {
    if (beat_i_[j] < seg_lo) continue;  // Interval ends in the context stride.
    out.rr.push_back(static_cast<double>(beat_i_[j] - beat_i_[j - 1]) / layout_.fs_hz);
    out.rr_from.push_back(beat_i_[j - 1]);
  }
  out.empty = beat_t_.empty();
  out.edr.clear();
  if (out.empty) return;

  // EDR grid: chunk_len points at chunk-local times i / edr_fs, through
  // resample_linear_into's grid loop with the grid anchored at 0. Points
  // past the last collected beat hold its amplitude (the causal tail hold).
  out.edr.resize(static_cast<std::size_t>(layout_.chunk_len));
  dsp::interpolate_grid(beat_t_, beat_a_, 0.0, layout_.edr_fs_hz, out.edr);
}

const std::vector<double>& SegmentFeatureCache::segment_psd(std::int64_t m,
                                                            dsp::SpectralScratch& scratch) {
  SVT_ASSERT(m >= 0);
  WelchEntry& e = welch_[static_cast<std::size_t>(m % layout_.num_segments)];
  if (e.index == m) {
    ++stats_.hits;
    return e.power;
  }
  if (e.index != -1 && e.index != m) ++stats_.evictions;
  ++stats_.misses;
  seg_buf_.clear();
  for (std::int64_t j = 0; j < layout_.seg_chunks; ++j) {
    const Chunk& c = slot(m + j);
    SVT_ASSERT(c.index == m + j && !c.empty);
    seg_buf_.insert(seg_buf_.end(), c.edr.begin(), c.edr.end());
  }
  dsp::welch_segment_psd(seg_buf_, layout_.edr_fs_hz, dsp::WelchParams{}, scratch, e.power);
  e.index = m;
  return e.power;
}

SegmentFeatureCache::WindowView SegmentFeatureCache::assemble_window(std::int64_t m0) {
  const std::int64_t cpw = layout_.chunks_per_window;
  const std::int64_t start = m0 * layout_.stride_samples;
  const std::size_t chunk_len = static_cast<std::size_t>(layout_.chunk_len);
  rr_buf_.clear();
  edr_buf_.resize(static_cast<std::size_t>(layout_.window_edr_len()));
  std::size_t beats = 0;
  double hold = 0.0;
  bool have_hold = false;
  std::size_t leading_empty = 0;  // Backfilled from the first non-empty chunk.
  for (std::int64_t j = 0; j < cpw; ++j) {
    const Chunk& c = slot(m0 + j);
    SVT_ASSERT(c.index == m0 + j);
    beats += c.beats;
    if (j == 0) {
      // Only the first chunk can hold intervals opening before the window.
      for (std::size_t k = 0; k < c.rr.size(); ++k)
        if (c.rr_from[k] >= start) rr_buf_.push_back(c.rr[k]);
    } else {
      rr_buf_.insert(rr_buf_.end(), c.rr.begin(), c.rr.end());
    }
    double* dst = edr_buf_.data() + static_cast<std::size_t>(j) * chunk_len;
    if (!c.empty) {
      std::copy(c.edr.begin(), c.edr.end(), dst);
      if (!have_hold)
        std::fill(edr_buf_.data(), edr_buf_.data() + leading_empty * chunk_len, c.edr.front());
      hold = c.edr.back();
      have_hold = true;
    } else if (have_hold) {
      std::fill(dst, dst + chunk_len, hold);
    } else {
      ++leading_empty;
    }
  }
  // No beat anywhere near the window: a flat series the feature gates will
  // zero out anyway.
  if (!have_hold) std::fill(edr_buf_.begin(), edr_buf_.end(), 0.0);
  assembled_ = m0;
  return WindowView{rr_buf_, edr_buf_, beats};
}

const dsp::PsdEstimate& SegmentFeatureCache::window_psd(std::int64_t m0,
                                                        dsp::SpectralScratch& scratch) {
  SVT_ASSERT(assembled_ == m0);
  const std::size_t seg_len = static_cast<std::size_t>(layout_.welch_segment_len());
  const std::size_t nfft = dsp::next_power_of_two(seg_len);
  const std::size_t half = nfft / 2 + 1;
  const double df = layout_.edr_fs_hz / static_cast<double>(nfft);
  psd_.frequency_hz.resize(half);
  for (std::size_t k = 0; k < half; ++k) psd_.frequency_hz[k] = df * static_cast<double>(k);
  psd_.power.resize(half);

  const std::int64_t nseg = layout_.num_segments;
  for (std::int64_t s = 0; s < nseg; ++s) {
    bool cacheable = true;
    for (std::int64_t j = 0; j < layout_.seg_chunks; ++j) {
      if (slot(m0 + s + j).empty) {
        cacheable = false;
        break;
      }
    }
    const std::vector<double>* p;
    if (cacheable) {
      p = &segment_psd(m0 + s, scratch);
    } else {
      // The segment overlaps an empty chunk, so its values depend on this
      // window's fill: compute it per window from the assembled EDR and do
      // not cache it.
      ++stats_.misses;
      const std::span<const double> x(
          edr_buf_.data() + static_cast<std::size_t>(s) * static_cast<std::size_t>(layout_.chunk_len),
          seg_len);
      dsp::welch_segment_psd(x, layout_.edr_fs_hz, dsp::WelchParams{}, scratch, seg_power_);
      p = &seg_power_;
    }
    SVT_ASSERT(p->size() == half);
    // Same accumulation order as welch_psd: first segment overwrites, the
    // rest add in ascending order, then one divide by the segment count.
    if (s == 0) {
      std::copy(p->begin(), p->end(), psd_.power.begin());
    } else {
      for (std::size_t k = 0; k < half; ++k) psd_.power[k] += (*p)[k];
    }
  }
  for (double& p : psd_.power) p /= static_cast<double>(nseg);
  return psd_;
}

}  // namespace svt::features
