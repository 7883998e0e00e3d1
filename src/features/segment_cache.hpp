// Overlap-aware memoization of per-stride feature intermediates.
//
// At the paper's 180 s window / 30 s stride configuration every window
// shares 5/6 of its samples with its predecessor, yet a from-scratch
// extractor rebuilds the RR tachogram, re-resamples the EDR series and
// recomputes every Welch segment FFT per window — paying the overlap
// factor in redundant work. This cache keys those intermediates on
// *stride-aligned segments* of the patient stream so each is computed once
// and reused by every window that covers it:
//
//   stride chunks   m:  [m*S, (m+1)*S) raw samples  ->  EDR grid values +
//                       RR interval slice (one entry per chunk)
//   Welch segments  m:  chunks m..m+seg_chunks-1    ->  one-sided
//                       periodogram power (one entry per segment start)
//
// Bit-exactness is by *construction*, not by tolerance: a chunk's products
// depend only on the final beats inside [(m-1)*S, (m+1)*S) — local beat
// times are anchored at the chunk start, RR intervals are differences of
// absolute integer sample indices, and the interpolation runs the exact
// resample_linear_into arithmetic — so recomputing an entry from the same
// stream yields the identical bits wherever it runs. A window is then
// assembled purely by concatenating chunk products, so a live cache and a
// fresh cache per window produce the same values (asserted by
// tests/test_rt_feature_cache.cpp with EXPECT_EQ on doubles, across
// strides, chunkings and eviction).
//
// Chunk semantics:
//  * A chunk sees one stride of left context: beats in [(m-1)*S, (m+1)*S).
//    Grid points before the first such beat clamp to its amplitude; points
//    after the last one hold its amplitude (the next beat is outside the
//    causal horizon, so the tail holds flat until the next chunk re-anchors
//    — a deliberate, documented deviation from whole-window interpolation
//    that keeps every chunk final as soon as the stream frontier passes it,
//    which is what makes the newest chunk cacheable too).
//  * RR intervals are (n_i - n_{i-1}) / fs over absolute beat sample
//    indices; an interval is stored with the chunk of its *ending* beat and
//    only if its opening beat lies within the left-context horizon (a gap
//    longer than one stride yields no interval — at clinical strides such
//    an interval could only be an artifact).
//  * A chunk with no beat in its horizon is `empty`; window assembly fills
//    it by holding the preceding chunk's tail (or clamping to the next
//    chunk's front when the window starts empty). Welch segments touching
//    an empty chunk are recomputed per window and not cached.
//
// Memory is bounded per patient: chunks_per_window chunk entries plus
// num_segments periodogram entries plus the window assembly buffers — a
// few tens of kilobytes at the paper configuration, independent of stream
// length (old entries are overwritten in place as the stride advances;
// stats().evictions counts them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/spectral.hpp"
#include "ecg/lane_qrs.hpp"

namespace svt::features {

/// Cumulative memoization counters (monotone per cache object). A
/// "product" is one chunk (EDR + RR slice) or one Welch segment
/// periodogram; per-window recomputes of segments touching an empty chunk
/// count as misses.
struct SegmentCacheStats {
  std::uint64_t hits = 0;       ///< Products served from the cache.
  std::uint64_t misses = 0;     ///< Products (re)built.
  std::uint64_t evictions = 0;  ///< Valid entries overwritten by the stride advance.

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
  SegmentCacheStats& operator+=(const SegmentCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    return *this;
  }
  /// What was counted since `earlier`, a snapshot of the same counters.
  SegmentCacheStats operator-(const SegmentCacheStats& earlier) const {
    return {hits - earlier.hits, misses - earlier.misses, evictions - earlier.evictions};
  }
};

class SegmentFeatureCache {
 public:
  /// The stride-aligned geometry everything is keyed on. Derived once by
  /// plan(); immutable for the cache's lifetime.
  struct Layout {
    double fs_hz = 0.0;
    double edr_fs_hz = 0.0;
    std::int64_t stride_samples = 0;    ///< S: raw samples per chunk.
    std::int64_t window_samples = 0;    ///< W = S * chunks_per_window.
    std::int64_t chunk_len = 0;         ///< C: EDR grid points per chunk.
    std::int64_t chunks_per_window = 0;
    std::int64_t seg_chunks = 0;        ///< Chunks per Welch segment.
    std::int64_t num_segments = 0;      ///< Welch segments per window (hop = 1 chunk).

    std::int64_t window_edr_len() const { return chunk_len * chunks_per_window; }
    std::int64_t welch_segment_len() const { return chunk_len * seg_chunks; }
  };

  /// The geometry for a stream configuration, or nullopt when it is not
  /// stride-aligned (rt::WindowExtractor rejects such configurations):
  /// alignment requires the EDR grid to advance an integral number of
  /// points per stride (stride_samples * edr_fs_hz / fs_hz integral, and
  /// at most stride_samples) and the window to be an integral number of
  /// strides. The Welch segment spans the largest multiple of the chunk
  /// length <= 256 grid points (welch_psd's default segment), clamped to
  /// the window.
  static std::optional<Layout> plan(double fs_hz, double edr_fs_hz,
                                    std::int64_t stride_samples, std::int64_t window_samples);

  explicit SegmentFeatureCache(const Layout& layout);

  const Layout& layout() const { return layout_; }
  const SegmentCacheStats& stats() const { return stats_; }

  /// One stride chunk's memoized products.
  struct Chunk {
    std::int64_t index = -1;  ///< Stride index m; covers raw [m*S, (m+1)*S).
    bool empty = false;       ///< No beat fell in [(m-1)*S, (m+1)*S).
    std::size_t beats = 0;    ///< Beats with sample_index in [m*S, (m+1)*S).
    std::vector<double> edr;  ///< chunk_len grid values (unset when empty).
    std::vector<double> rr;   ///< Intervals ending at in-chunk beats [s].
    std::vector<std::int64_t> rr_from;  ///< Opening-beat sample index per interval.
  };

  /// Chunk m, built from the ring on a miss. The ring must still hold every
  /// final beat with sample_index in [(m-1)*S, (m+1)*S) — the extractor
  /// guarantees this by retaining one stride of beats behind the window.
  const Chunk& chunk(const ecg::BeatRing& ring, std::int64_t m);

  /// Periodogram of the Welch segment starting at chunk m (covering chunks
  /// m..m+seg_chunks-1, all of which must be built, current and non-empty).
  /// nfft/2+1 power bins, exactly welch_segment_psd of the concatenated
  /// chunk values.
  const std::vector<double>& segment_psd(std::int64_t m, dsp::SpectralScratch& scratch);

  /// The window starting at chunk m0, assembled from built chunks (call
  /// chunk() for m0..m0+chunks_per_window-1 first). Spans point into
  /// internal buffers valid until the next assemble_window call.
  struct WindowView {
    std::span<const double> rr;   ///< Concatenated in-window intervals.
    std::span<const double> edr;  ///< window_edr_len() grid values.
    std::size_t beats = 0;        ///< Beats inside [m0*S, m0*S + W).
  };
  WindowView assemble_window(std::int64_t m0);

  /// Welch PSD of the assembled window: the average of num_segments
  /// per-segment periodograms in ascending segment order (cached where all
  /// covered chunks are non-empty, recomputed per window from the assembled
  /// EDR otherwise). Call assemble_window(m0) first. Bit-identical to
  /// welch_psd over the assembled EDR with the layout's segment length and
  /// a one-chunk hop.
  const dsp::PsdEstimate& window_psd(std::int64_t m0, dsp::SpectralScratch& scratch);

 private:
  Chunk& slot(std::int64_t m) {
    return chunks_[static_cast<std::size_t>(m % layout_.chunks_per_window)];
  }
  void build_chunk(const ecg::BeatRing& ring, std::int64_t m, Chunk& out);

  struct WelchEntry {
    std::int64_t index = -1;
    std::vector<double> power;
  };

  Layout layout_;
  std::vector<Chunk> chunks_;      ///< Ring keyed m % chunks_per_window.
  std::vector<WelchEntry> welch_;  ///< Ring keyed m % num_segments.
  SegmentCacheStats stats_;

  // Build/assembly scratch (per patient; reused across windows).
  std::vector<double> beat_t_;        ///< Chunk-local beat times.
  std::vector<double> beat_a_;        ///< Beat amplitudes.
  std::vector<std::int64_t> beat_i_;  ///< Absolute beat sample indices.
  std::vector<double> rr_buf_;        ///< Assembled window intervals.
  std::vector<double> edr_buf_;       ///< Assembled window EDR grid.
  std::vector<double> seg_buf_;       ///< Concatenated chunk values for a segment build.
  std::vector<double> seg_power_;     ///< Fallback (uncached) segment power.
  std::int64_t assembled_ = -1;       ///< m0 of the current assembly, for asserts.
  dsp::PsdEstimate psd_;              ///< Averaged window PSD.
};

}  // namespace svt::features
