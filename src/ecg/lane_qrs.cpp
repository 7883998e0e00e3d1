#include "ecg/lane_qrs.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#endif

#include "dsp/filter.hpp"

namespace svt::ecg {

namespace detail {
const double kZeros[kStepBlock] = {};
}  // namespace detail

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::size_t kFilterDoubles = 13;  ///< Per-lane filter-state scalars.

/// Decision samples scanned per candidate mask (one bit each).
constexpr std::int64_t kScanSpan = 64;

/// Candidate mask of the decision samples [i, i + count), count <= 64: bit k
/// is set iff integrated[i + k] >= integrated[i + k - 1] and
/// integrated[i + k] > integrated[i + k + 1] — the local-maximum test of
/// StreamingQrsDetector::decide. Both compares are ordered, so a NaN is
/// never a candidate, on either path.
std::uint64_t local_maxima(const double* buf, std::size_t mask, std::int64_t i, std::size_t count,
                           common::SimdTier tier) {
  const std::size_t first = static_cast<std::size_t>(i - 1) & mask;
  std::uint64_t bits = 0;
#if defined(__SSE2__) || defined(_M_X64)
  // Unwrapped span: p[k], p[k + 1], p[k + 2] are integrated[i + k - 1 ..
  // i + k + 1], two decision samples per compare. About 3x cheaper per
  // sample than the loop below, which is worth ~8% of paper-ward
  // windows_per_cpu_s (gcc 12, shared 4-vCPU Xeon).
  if (tier == common::SimdTier::kSse2 && first + count + 2 <= mask + 1) {
    const double* p = buf + first;
    std::size_t k = 0;
    for (; k + 2 <= count; k += 2) {
      const __m128d prev = _mm_loadu_pd(p + k);
      const __m128d cur = _mm_loadu_pd(p + k + 1);
      const __m128d next = _mm_loadu_pd(p + k + 2);
      const __m128d is_max = _mm_and_pd(_mm_cmpge_pd(cur, prev), _mm_cmpgt_pd(cur, next));
      bits |= static_cast<std::uint64_t>(_mm_movemask_pd(is_max)) << k;
    }
    if (k < count)
      bits |= static_cast<std::uint64_t>((p[k + 1] >= p[k]) & (p[k + 1] > p[k + 2])) << k;
    return bits;
  }
#else
  (void)tier;
#endif
  // Scalar tier, or a span that wraps the ring: branch-free per sample.
  for (std::size_t k = 0; k < count; ++k) {
    const double prev = buf[(first + k) & mask];
    const double cur = buf[(first + k + 1) & mask];
    const double next = buf[(first + k + 2) & mask];
    bits |= static_cast<std::uint64_t>((cur >= prev) & (cur > next)) << k;
  }
  return bits;
}

}  // namespace

void BeatRing::grow() {
  std::vector<Beat> next(std::max<std::size_t>(16, buf_.size() * 2));
  for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
  buf_ = std::move(next);
  head_ = 0;
}

const char* lane_isa_name() { return common::simd_tier_name(common::simd_tier()); }

void LaneQrsDetector::Ring::init(std::size_t min_capacity) {
  buf.assign(next_pow2(min_capacity), 0.0);
  mask = buf.size() - 1;
}

LaneQrsDetector::LaneQrsDetector(double fs_hz, const PanTompkinsParams& params)
    : params_(params), tier_(common::simd_tier()) {
  if (fs_hz <= 0.0) throw std::invalid_argument("LaneQrsDetector: fs_hz <= 0");
  if (!(0.0 < params.bandpass_lo_hz && params.bandpass_lo_hz < params.bandpass_hi_hz &&
        params.bandpass_hi_hz < fs_hz / 2.0))
    throw std::invalid_argument("LaneQrsDetector: need 0 < lo < hi < fs/2");
  const dsp::Biquad hp = dsp::butterworth_highpass(params.bandpass_lo_hz, fs_hz);
  const dsp::Biquad lp = dsp::butterworth_lowpass(params.bandpass_hi_hz, fs_hz);
  coeffs_.hp_b0 = hp.b0();
  coeffs_.hp_b1 = hp.b1();
  coeffs_.hp_b2 = hp.b2();
  coeffs_.hp_a1 = hp.a1();
  coeffs_.hp_a2 = hp.a2();
  coeffs_.lp_b0 = lp.b0();
  coeffs_.lp_b1 = lp.b1();
  coeffs_.lp_b2 = lp.b2();
  coeffs_.lp_a1 = lp.a1();
  coeffs_.lp_a2 = lp.a2();
  coeffs_.fs = fs_hz;
  win_ = std::max<std::size_t>(1, static_cast<std::size_t>(params.integration_window_s * fs_hz));
  coeffs_.win = static_cast<std::int64_t>(win_);
  refractory_ = static_cast<std::size_t>(params.refractory_s * fs_hz);
  learning_n_ = static_cast<std::int64_t>(static_cast<std::size_t>(params.learning_s * fs_hz));
  decision_lag_ = std::max<std::size_t>(1, win_ / 4);
}

std::size_t LaneQrsDetector::add_lane() {
  SVT_ASSERT(active_count_ < kMaxLanes);
  std::size_t lane = 0;
  while (lanes_[lane].active) ++lane;
  reset_lane(lane);
  lanes_[lane].active = true;
  ++active_count_;
  return lane;
}

void LaneQrsDetector::remove_lane(std::size_t lane) {
  LaneState& state = lanes_[check(lane)];
  SVT_ASSERT(state.active);
  state.active = false;
  --active_count_;
  // Ring buffers stay allocated in the slot: they are pooled for the next
  // occupant, so memory is bounded by the pack width, not by churn.
}

void LaneQrsDetector::reset_lane(std::size_t lane) {
  LaneState& state = lanes_[lane];
  const auto learning = static_cast<std::size_t>(learning_n_);
  // Same minimum capacities as StreamingQrsDetector, plus kStepBlock so the
  // entries a deferred learning scan / decision catch-up reads survive a
  // whole lockstep block.
  state.squared.init(win_ + 2);
  state.integrated.init(learning + decision_lag_ + 4 + detail::kStepBlock);
  state.raw.init(std::max(learning + 2, win_ + decision_lag_ + 2) + detail::kStepBlock);
  state.beats.clear();
  state.n = 0;
  state.cursor = 1;
  state.finished = false;
  state.thresholds_ready = learning_n_ == 0;  // Batch: zero-length head leaves 0/0.
  state.spki = 0.0;
  state.npki = 0.0;
  state.last_peak_idx = 0;
  state.have_peak = false;
  state.last_kept_time = 0.0;
  state.have_kept = false;
  filt_.hp_x1[lane] = filt_.hp_x2[lane] = filt_.hp_y1[lane] = filt_.hp_y2[lane] = 0.0;
  filt_.lp_x1[lane] = filt_.lp_x2[lane] = filt_.lp_y1[lane] = filt_.lp_y2[lane] = 0.0;
  filt_.f1[lane] = filt_.f2[lane] = filt_.f3[lane] = filt_.f4[lane] = 0.0;
  filt_.integ_acc[lane] = 0.0;
}

std::int64_t LaneQrsDetector::final_through(std::size_t lane) const {
  const LaneState& state = lanes_[check(lane)];
  if (state.finished) return state.n;
  return state.cursor > static_cast<std::int64_t>(win_)
             ? state.cursor - static_cast<std::int64_t>(win_)
             : 0;
}

void LaneQrsDetector::store_raw(std::size_t lane, const double* x, std::size_t count) {
  // One block of input into the raw ring at [n, n + count): at most two
  // contiguous copies, split where the ring wraps (count <= kStepBlock
  // never exceeds the ring).
  LaneState& state = lanes_[lane];
  double* const buf = state.raw.buf.data();
  const std::size_t start = static_cast<std::size_t>(state.n) & state.raw.mask;
  const std::size_t head = std::min(count, state.raw.buf.size() - start);
  std::copy_n(x, head, buf + start);
  std::copy_n(x + head, count - head, buf);
}

void LaneQrsDetector::step_scalar(std::size_t lane, const double* x, std::size_t count) {
  // Per-sample arithmetic identical to StreamingQrsDetector::ingest. The
  // lane's filter column, coefficients and ring cursors live in locals for
  // the block: the ring stores go through double*, which could alias filt_
  // or coeffs_, so state kept in members would be reloaded every sample.
  store_raw(lane, x, count);
  LaneState& state = lanes_[lane];
  const detail::LaneCoeffs c = coeffs_;
  detail::LaneFilterState& s = filt_;
  double hx1 = s.hp_x1[lane], hx2 = s.hp_x2[lane], hy1 = s.hp_y1[lane], hy2 = s.hp_y2[lane];
  double lx1 = s.lp_x1[lane], lx2 = s.lp_x2[lane], ly1 = s.lp_y1[lane], ly2 = s.lp_y2[lane];
  double f1 = s.f1[lane], f2 = s.f2[lane], f3 = s.f3[lane], f4 = s.f4[lane];
  double acc = s.integ_acc[lane];
  double* const squared = state.squared.buf.data();
  const std::size_t sq_mask = state.squared.mask;
  double* const integrated = state.integrated.buf.data();
  const std::size_t integ_mask = state.integrated.mask;
  std::int64_t n = state.n;
  for (std::size_t k = 0; k < count; ++k) {
    const double xv = x[k];
    const double hy = c.hp_b0 * xv + c.hp_b1 * hx1 + c.hp_b2 * hx2 - c.hp_a1 * hy1 - c.hp_a2 * hy2;
    hx2 = hx1;
    hx1 = xv;
    hy2 = hy1;
    hy1 = hy;
    const double f = c.lp_b0 * hy + c.lp_b1 * lx1 + c.lp_b2 * lx2 - c.lp_a1 * ly1 - c.lp_a2 * ly2;
    lx2 = lx1;
    lx1 = hy;
    ly2 = ly1;
    ly1 = f;
    if (n == 0) f1 = f2 = f3 = f4 = f;
    const double d = c.fs * (2.0 * f + f1 - f3 - 2.0 * f4) / 8.0;
    f4 = f3;
    f3 = f2;
    f2 = f1;
    f1 = f;
    const double sq = d * d;
    acc += sq;
    squared[static_cast<std::size_t>(n) & sq_mask] = sq;
    if (n >= c.win) acc -= squared[static_cast<std::size_t>(n - c.win) & sq_mask];
    const auto norm = std::min<std::int64_t>(n + 1, c.win);
    integrated[static_cast<std::size_t>(n) & integ_mask] = acc / static_cast<double>(norm);
    ++n;
  }
  s.hp_x1[lane] = hx1;
  s.hp_x2[lane] = hx2;
  s.hp_y1[lane] = hy1;
  s.hp_y2[lane] = hy2;
  s.lp_x1[lane] = lx1;
  s.lp_x2[lane] = lx2;
  s.lp_y1[lane] = ly1;
  s.lp_y2[lane] = ly2;
  s.f1[lane] = f1;
  s.f2[lane] = f2;
  s.f3[lane] = f3;
  s.f4[lane] = f4;
  s.integ_acc[lane] = acc;
  state.n = n;
}

void LaneQrsDetector::learn_thresholds(std::size_t lane, std::int64_t learning) {
  if (learning <= 0) return;
  LaneState& state = lanes_[lane];
  double maxv = state.integrated.at(0);
  double sum = 0.0;
  for (std::int64_t k = 0; k < learning; ++k) {
    const double v = state.integrated.at(k);
    if (v > maxv) maxv = v;
    sum += v;
  }
  state.spki = maxv * 0.4;
  state.npki = sum / static_cast<double>(learning) * 0.5;
}

void LaneQrsDetector::take_peak(std::size_t lane, std::int64_t i, std::int64_t raw_end) {
  // Slow path of the decision replay: a local maximum above threshold and
  // clear of the refractory period. Searches the raw signal for the R peak
  // and keeps it unless it duplicates the last kept beat; fires roughly once
  // per heartbeat. The caller adapts the signal level.
  LaneState& state = lanes_[lane];
  const std::int64_t search_lo =
      i >= static_cast<std::int64_t>(win_) ? i - static_cast<std::int64_t>(win_) : 0;
  const std::int64_t search_hi = std::min(raw_end, i + static_cast<std::int64_t>(win_ / 4));
  std::int64_t best = search_lo;
  for (std::int64_t j = search_lo; j <= search_hi; ++j) {
    if (state.raw.at(j) > state.raw.at(best)) best = j;
  }
  const double t = static_cast<double>(best) / coeffs_.fs;
  if (!state.have_kept || t > state.last_kept_time + params_.refractory_s * 0.5) {
    state.beats.push_back({best, state.raw.at(best)});
    state.last_kept_time = t;
    state.have_kept = true;
  }
  state.last_peak_idx = i;
  state.have_peak = true;
}

void LaneQrsDetector::replay_decisions(std::size_t lane, std::int64_t limit,
                                       std::int64_t raw_end) {
  // Decisions from the cursor through `limit` (inclusive) over the frozen
  // integrated ring. Only local maxima can change state, and they are ~5% of
  // samples, so each span of <= 64 samples is first reduced to a candidate
  // mask (no data-dependent branch per sample), then the threshold logic
  // runs on the set bits in ascending order. Arithmetic and comparison
  // order are exactly StreamingQrsDetector::decide's.
  LaneState& state = lanes_[lane];
  const double* buf = state.integrated.buf.data();
  const std::size_t mask = state.integrated.mask;
  const auto refractory = static_cast<std::int64_t>(refractory_);
  double npki = state.npki;
  double spki = state.spki;
  std::int64_t i = state.cursor;
  while (i <= limit) {
    const auto count = static_cast<std::size_t>(std::min(limit - i + 1, kScanSpan));
    for (std::uint64_t bits = local_maxima(buf, mask, i, count, tier_); bits != 0;) {
      const std::int64_t j = i + std::countr_zero(bits);
      bits &= bits - 1;
      const double peak = buf[static_cast<std::size_t>(j) & mask];
      const double threshold = npki + 0.25 * (spki - npki);
      if (peak > threshold && (!state.have_peak || j - state.last_peak_idx > refractory)) {
        take_peak(lane, j, raw_end);
        spki = 0.125 * peak + 0.875 * spki;
      } else {
        npki = 0.125 * peak + 0.875 * npki;
      }
    }
    i += static_cast<std::int64_t>(count);
  }
  state.npki = npki;
  state.spki = spki;
  state.cursor = i;
}

void LaneQrsDetector::after_block(std::size_t lane) {
  // Deferred replay of the per-sample bookkeeping StreamingQrsDetector::push
  // interleaves with ingestion. Exact because the learning scan reads ring
  // entries that no longer change, decisions never feed back into the chain,
  // and a larger raw_end cannot move min(raw_end, i + win/4) once
  // raw_end >= i + decision_lag (decision_lag == max(1, win/4)).
  LaneState& state = lanes_[lane];
  if (!state.thresholds_ready && state.n >= learning_n_) {
    state.thresholds_ready = true;
    learn_thresholds(lane, learning_n_);
  }
  if (!state.thresholds_ready) return;
  replay_decisions(lane, state.n - 1 - static_cast<std::int64_t>(decision_lag_), state.n - 1);
}

void LaneQrsDetector::push(std::span<const LaneChunk> chunks) {
  std::array<const double*, kMaxLanes> cur{};
  std::array<std::size_t, kMaxLanes> rem{};
  std::array<bool, kMaxLanes> seen{};
  for (const LaneChunk& chunk : chunks) {
    const std::size_t lane = check(chunk.lane);
    SVT_ASSERT(lanes_[lane].active && !lanes_[lane].finished);
    SVT_ASSERT(!seen[lane]);  // At most one chunk per lane per round.
    seen[lane] = true;
    cur[lane] = chunk.samples.data();
    rem[lane] = chunk.samples.size();
  }
  const std::size_t width = tier_ == common::SimdTier::kSse2 ? 2 : 1;
  for (std::size_t base = 0; base < kMaxLanes; base += width) run_group(base, width, cur, rem);
}

void LaneQrsDetector::push_one(std::size_t lane, std::span<const double> samples_mv) {
  const LaneChunk chunk{lane, samples_mv};
  push(std::span<const LaneChunk>(&chunk, 1));
}

void LaneQrsDetector::run_group(std::size_t base, std::size_t width,
                                std::array<const double*, kMaxLanes>& cur,
                                std::array<std::size_t, kMaxLanes>& rem) {
  // A stream's first sample seeds the derivative delay line: peel it through
  // the scalar step so the vector body stays branch-free.
  for (std::size_t w = 0; w < width; ++w) {
    const std::size_t lane = base + w;
    if (rem[lane] > 0 && lanes_[lane].n == 0) {
      step_scalar(lane, cur[lane], 1);
      after_block(lane);
      ++cur[lane];
      --rem[lane];
      ++scalar_samples_;
    }
  }
  for (;;) {
    std::size_t engaged = 0;
    std::size_t m = detail::kStepBlock;
    for (std::size_t w = 0; w < width; ++w) {
      if (rem[base + w] > 0) {
        ++engaged;
        m = std::min(m, rem[base + w]);
      }
    }
    if (engaged == 0) return;
    if (engaged < 2 || width < 2) {
      // Ragged tail / lone lane / scalar tier: nothing left in lockstep.
      for (std::size_t w = 0; w < width; ++w) {
        const std::size_t lane = base + w;
        while (rem[lane] > 0) {
          const std::size_t take = std::min(rem[lane], detail::kStepBlock);
          step_scalar(lane, cur[lane], take);
          after_block(lane);
          cur[lane] += take;
          rem[lane] -= take;
          scalar_samples_ += take;
        }
      }
      return;
    }
    // Lockstep block over the group. The kernel clobbers every slot's
    // filter state, so live-but-idle lanes are snapshotted and restored.
    detail::LaneRun runs[2];
    double saved[2][kFilterDoubles];
    bool protect[2] = {};
    for (std::size_t w = 0; w < width; ++w) {
      const std::size_t lane = base + w;
      detail::LaneRun& r = runs[w];
      r = detail::LaneRun{};
      if (rem[lane] > 0) {
        store_raw(lane, cur[lane], m);
        LaneState& state = lanes_[lane];
        r.engaged = true;
        r.input = cur[lane];
        r.squared = state.squared.buf.data();
        r.squared_mask = state.squared.mask;
        r.integrated = state.integrated.buf.data();
        r.integrated_mask = state.integrated.mask;
        r.n = state.n;
      } else if (lanes_[lane].active) {
        protect[w] = true;
        double* out = saved[w];
        *out++ = filt_.hp_x1[lane];
        *out++ = filt_.hp_x2[lane];
        *out++ = filt_.hp_y1[lane];
        *out++ = filt_.hp_y2[lane];
        *out++ = filt_.lp_x1[lane];
        *out++ = filt_.lp_x2[lane];
        *out++ = filt_.lp_y1[lane];
        *out++ = filt_.lp_y2[lane];
        *out++ = filt_.f1[lane];
        *out++ = filt_.f2[lane];
        *out++ = filt_.f3[lane];
        *out++ = filt_.f4[lane];
        *out++ = filt_.integ_acc[lane];
      }
    }
    detail::lane_step_block_sse2(coeffs_, filt_, base, runs, m);
    for (std::size_t w = 0; w < width; ++w) {
      const std::size_t lane = base + w;
      if (protect[w]) {
        const double* in = saved[w];
        filt_.hp_x1[lane] = *in++;
        filt_.hp_x2[lane] = *in++;
        filt_.hp_y1[lane] = *in++;
        filt_.hp_y2[lane] = *in++;
        filt_.lp_x1[lane] = *in++;
        filt_.lp_x2[lane] = *in++;
        filt_.lp_y1[lane] = *in++;
        filt_.lp_y2[lane] = *in++;
        filt_.f1[lane] = *in++;
        filt_.f2[lane] = *in++;
        filt_.f3[lane] = *in++;
        filt_.f4[lane] = *in++;
        filt_.integ_acc[lane] = *in++;
      }
      if (runs[w].engaged) {
        lanes_[lane].n = runs[w].n;
        cur[lane] += m;
        rem[lane] -= m;
        after_block(lane);
        vector_samples_ += m;
      }
    }
  }
}

void LaneQrsDetector::finish(std::size_t lane) {
  LaneState& state = lanes_[check(lane)];
  SVT_ASSERT(state.active);
  if (state.finished) return;
  state.finished = true;
  if (state.n == 0) return;
  if (!state.thresholds_ready) {
    learn_thresholds(lane, std::min(state.n, learning_n_));
    state.thresholds_ready = true;
  }
  replay_decisions(lane, state.n - 2, state.n - 1);
  state.cursor = state.n;
}

std::size_t LaneQrsDetector::resident_bytes() const {
  std::size_t bytes = 0;
  for (const LaneState& state : lanes_) {
    bytes += (state.squared.buf.capacity() + state.integrated.buf.capacity() +
              state.raw.buf.capacity()) *
             sizeof(double);
    bytes += state.beats.capacity() * sizeof(Beat);
  }
  return bytes;
}

// --- SSE2 lockstep kernel ----------------------------------------------------
// SSE2 is architectural baseline on x86-64, so this compiles in the plain
// library TU with no extra flags; two patients per instruction.

namespace detail {

#if defined(__SSE2__) || defined(_M_X64)

void lane_step_block_sse2(const LaneCoeffs& c, LaneFilterState& s, std::size_t base,
                          LaneRun* runs, std::size_t steps) {
  SVT_ASSERT(base % 2 == 0 && base + 2 <= kMaxLanes && steps <= kStepBlock);
  const __m128d hp_b0 = _mm_set1_pd(c.hp_b0), hp_b1 = _mm_set1_pd(c.hp_b1);
  const __m128d hp_b2 = _mm_set1_pd(c.hp_b2), hp_a1 = _mm_set1_pd(c.hp_a1);
  const __m128d hp_a2 = _mm_set1_pd(c.hp_a2);
  const __m128d lp_b0 = _mm_set1_pd(c.lp_b0), lp_b1 = _mm_set1_pd(c.lp_b1);
  const __m128d lp_b2 = _mm_set1_pd(c.lp_b2), lp_a1 = _mm_set1_pd(c.lp_a1);
  const __m128d lp_a2 = _mm_set1_pd(c.lp_a2);
  const __m128d fs = _mm_set1_pd(c.fs);
  const __m128d two = _mm_set1_pd(2.0);
  // 1/8 is exact in binary64, so x * 0.125 == x / 8.0 bit-for-bit — one fewer
  // divide on the per-sample critical path (vdivpd is the throughput bottleneck).
  const __m128d eighth = _mm_set1_pd(0.125);

  __m128d hx1 = _mm_load_pd(&s.hp_x1[base]), hx2 = _mm_load_pd(&s.hp_x2[base]);
  __m128d hy1 = _mm_load_pd(&s.hp_y1[base]), hy2 = _mm_load_pd(&s.hp_y2[base]);
  __m128d lx1 = _mm_load_pd(&s.lp_x1[base]), lx2 = _mm_load_pd(&s.lp_x2[base]);
  __m128d ly1 = _mm_load_pd(&s.lp_y1[base]), ly2 = _mm_load_pd(&s.lp_y2[base]);
  __m128d f1 = _mm_load_pd(&s.f1[base]), f2 = _mm_load_pd(&s.f2[base]);
  __m128d f3 = _mm_load_pd(&s.f3[base]), f4 = _mm_load_pd(&s.f4[base]);
  __m128d acc = _mm_load_pd(&s.integ_acc[base]);

  std::int64_t n[2] = {runs[0].n, runs[1].n};

  // Steady state (every engaged lane past integrator warmup) runs the
  // branch-free fast path: the window subtrahend loads straight from the
  // squared rings (written `win` iterations earlier, so no store-forward
  // stall) and disengaged lanes write into a dummy ring, keeping the
  // accumulator's loop-carried chain free of per-lane branches.
  const bool steady = (!runs[0].engaged || runs[0].n >= c.win) &&
                      (!runs[1].engaged || runs[1].n >= c.win);

  if (steady) {
    alignas(16) double dummy[8] = {};
    const double* in[2];
    double* squared[2];
    double* integrated[2];
    std::size_t sq_m[2], integ_m[2];
    for (int w = 0; w < 2; ++w) {
      const LaneRun& r = runs[w];
      in[w] = r.input;
      if (r.engaged) {
        squared[w] = r.squared;
        integrated[w] = r.integrated;
        sq_m[w] = r.squared_mask;
        integ_m[w] = r.integrated_mask;
      } else {
        squared[w] = integrated[w] = dummy;
        sq_m[w] = integ_m[w] = 7;
      }
    }
    const __m128d nrm = _mm_set1_pd(static_cast<double>(c.win));
    for (std::size_t k = 0; k < steps; ++k) {
      const __m128d x = _mm_set_pd(in[1][k], in[0][k]);
      __m128d hy = _mm_mul_pd(hp_b0, x);
      hy = _mm_add_pd(hy, _mm_mul_pd(hp_b1, hx1));
      hy = _mm_add_pd(hy, _mm_mul_pd(hp_b2, hx2));
      hy = _mm_sub_pd(hy, _mm_mul_pd(hp_a1, hy1));
      hy = _mm_sub_pd(hy, _mm_mul_pd(hp_a2, hy2));
      hx2 = hx1;
      hx1 = x;
      hy2 = hy1;
      hy1 = hy;
      __m128d f = _mm_mul_pd(lp_b0, hy);
      f = _mm_add_pd(f, _mm_mul_pd(lp_b1, lx1));
      f = _mm_add_pd(f, _mm_mul_pd(lp_b2, lx2));
      f = _mm_sub_pd(f, _mm_mul_pd(lp_a1, ly1));
      f = _mm_sub_pd(f, _mm_mul_pd(lp_a2, ly2));
      lx2 = lx1;
      lx1 = hy;
      ly2 = ly1;
      ly1 = f;
      __m128d d = _mm_mul_pd(two, f);
      d = _mm_add_pd(d, f1);
      d = _mm_sub_pd(d, f3);
      d = _mm_sub_pd(d, _mm_mul_pd(two, f4));
      d = _mm_mul_pd(_mm_mul_pd(fs, d), eighth);
      f4 = f3;
      f3 = f2;
      f2 = f1;
      f1 = f;
      const __m128d sq = _mm_mul_pd(d, d);
      acc = _mm_add_pd(acc, sq);
      const __m128d sub =
          _mm_set_pd(squared[1][static_cast<std::size_t>(n[1] - c.win) & sq_m[1]],
                     squared[0][static_cast<std::size_t>(n[0] - c.win) & sq_m[0]]);
      acc = _mm_sub_pd(acc, sub);
      const __m128d integ = _mm_div_pd(acc, nrm);
      const auto n0 = static_cast<std::size_t>(n[0]);
      const auto n1 = static_cast<std::size_t>(n[1]);
      _mm_storel_pd(&squared[0][n0 & sq_m[0]], sq);
      _mm_storeh_pd(&squared[1][n1 & sq_m[1]], sq);
      _mm_storel_pd(&integrated[0][n0 & integ_m[0]], integ);
      _mm_storeh_pd(&integrated[1][n1 & integ_m[1]], integ);
      ++n[0];
      ++n[1];
    }
  } else {
    alignas(16) double tmp[2], sub[2], nrm[2];
    for (std::size_t k = 0; k < steps; ++k) {
      const __m128d x = _mm_set_pd(runs[1].input[k], runs[0].input[k]);
      __m128d hy = _mm_mul_pd(hp_b0, x);
      hy = _mm_add_pd(hy, _mm_mul_pd(hp_b1, hx1));
      hy = _mm_add_pd(hy, _mm_mul_pd(hp_b2, hx2));
      hy = _mm_sub_pd(hy, _mm_mul_pd(hp_a1, hy1));
      hy = _mm_sub_pd(hy, _mm_mul_pd(hp_a2, hy2));
      hx2 = hx1;
      hx1 = x;
      hy2 = hy1;
      hy1 = hy;
      __m128d f = _mm_mul_pd(lp_b0, hy);
      f = _mm_add_pd(f, _mm_mul_pd(lp_b1, lx1));
      f = _mm_add_pd(f, _mm_mul_pd(lp_b2, lx2));
      f = _mm_sub_pd(f, _mm_mul_pd(lp_a1, ly1));
      f = _mm_sub_pd(f, _mm_mul_pd(lp_a2, ly2));
      lx2 = lx1;
      lx1 = hy;
      ly2 = ly1;
      ly1 = f;
      __m128d d = _mm_mul_pd(two, f);
      d = _mm_add_pd(d, f1);
      d = _mm_sub_pd(d, f3);
      d = _mm_sub_pd(d, _mm_mul_pd(two, f4));
      d = _mm_mul_pd(_mm_mul_pd(fs, d), eighth);
      f4 = f3;
      f3 = f2;
      f2 = f1;
      f1 = f;
      const __m128d sq = _mm_mul_pd(d, d);
      acc = _mm_add_pd(acc, sq);
      _mm_store_pd(tmp, sq);
      for (int w = 0; w < 2; ++w) {
        LaneRun& r = runs[w];
        if (r.engaged) {
          r.squared[static_cast<std::size_t>(n[w]) & r.squared_mask] = tmp[w];
          sub[w] = n[w] >= c.win
                       ? r.squared[static_cast<std::size_t>(n[w] - c.win) & r.squared_mask]
                       : 0.0;
          nrm[w] = static_cast<double>(n[w] + 1 < c.win ? n[w] + 1 : c.win);
        } else {
          sub[w] = 0.0;
          nrm[w] = 1.0;
        }
      }
      acc = _mm_sub_pd(acc, _mm_set_pd(sub[1], sub[0]));
      const __m128d integ = _mm_div_pd(acc, _mm_set_pd(nrm[1], nrm[0]));
      _mm_store_pd(tmp, integ);
      for (int w = 0; w < 2; ++w) {
        LaneRun& r = runs[w];
        if (r.engaged) {
          r.integrated[static_cast<std::size_t>(n[w]) & r.integrated_mask] = tmp[w];
          ++n[w];
        }
      }
    }
  }

  _mm_store_pd(&s.hp_x1[base], hx1);
  _mm_store_pd(&s.hp_x2[base], hx2);
  _mm_store_pd(&s.hp_y1[base], hy1);
  _mm_store_pd(&s.hp_y2[base], hy2);
  _mm_store_pd(&s.lp_x1[base], lx1);
  _mm_store_pd(&s.lp_x2[base], lx2);
  _mm_store_pd(&s.lp_y1[base], ly1);
  _mm_store_pd(&s.lp_y2[base], ly2);
  _mm_store_pd(&s.f1[base], f1);
  _mm_store_pd(&s.f2[base], f2);
  _mm_store_pd(&s.f3[base], f3);
  _mm_store_pd(&s.f4[base], f4);
  _mm_store_pd(&s.integ_acc[base], acc);
  // Steady path advances disengaged lanes' local count into the dummy ring;
  // their real cursors must not move.
  if (runs[0].engaged) runs[0].n = n[0];
  if (runs[1].engaged) runs[1].n = n[1];
}

#else

void lane_step_block_sse2(const LaneCoeffs&, LaneFilterState&, std::size_t, LaneRun*,
                          std::size_t) {
  SVT_ASSERT(false && "lane_step_block_sse2 called on a non-SSE2 target");
}

#endif

}  // namespace detail

}  // namespace svt::ecg
