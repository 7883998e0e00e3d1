#include "ecg/lane_qrs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#endif

#include "dsp/filter.hpp"

namespace svt::ecg {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The detector's band-pass, windows and learning period.
constexpr PanTompkinsParams kParams{};

/// Blocks are capped at this many samples so the deferred per-lane decision
/// catch-up never trails the stream by more than kStepBlock; the history
/// rings carry exactly this much extra capacity.
constexpr std::size_t kStepBlock = 64;

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

#if defined(__SSE2__) || defined(_M_X64)

/// One lane's cursor through a lockstep block: its input, its absolute
/// stream position and its (power-of-two, absolute-indexed) filter-output
/// rings. The raw ring is not here: the caller copies each block's input
/// into it with one contiguous copy before stepping.
struct LaneRun {
  const double* input;  ///< `steps` samples to consume.
  double* squared;
  std::size_t squared_mask;
  double* integrated;
  std::size_t integrated_mask;
  std::int64_t n;  ///< Absolute sample count at the block start.
};

// Step `steps` (<= kStepBlock) samples for the lane slots [base, base + 2) in
// SSE2 lockstep, writing only those slots' filter columns and the two filter
// output rings (one half-register store per lane). SSE2 is the x86-64
// baseline, so this compiles with no extra flags. Both lanes must be past
// integrator warmup (n >= win): the window subtrahend then loads straight
// from the squared ring (written `win` iterations earlier, so no
// store-forward stall) and the divisor is `win` for every sample, which
// keeps the accumulator's loop-carried chain free of per-lane branches. The
// loop is bound by instruction throughput, not by that chain.
void lane_step_block_sse2(const detail::LaneCoeffs& c, detail::LaneFilterState& s,
                          std::size_t base, const LaneRun (&runs)[2], std::size_t steps) {
  SVT_ASSERT(base % 2 == 0 && base + 2 <= detail::kMaxLanes && steps <= kStepBlock);
  SVT_ASSERT(runs[0].n >= c.win && runs[1].n >= c.win);
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
  const __m128d nrm = _mm_set1_pd(static_cast<double>(c.win));

  __m128d hx1 = _mm_load_pd(&s.hp_x1[base]), hx2 = _mm_load_pd(&s.hp_x2[base]);
  __m128d hy1 = _mm_load_pd(&s.hp_y1[base]), hy2 = _mm_load_pd(&s.hp_y2[base]);
  __m128d lx1 = _mm_load_pd(&s.lp_x1[base]), lx2 = _mm_load_pd(&s.lp_x2[base]);
  __m128d ly1 = _mm_load_pd(&s.lp_y1[base]), ly2 = _mm_load_pd(&s.lp_y2[base]);
  __m128d f1 = _mm_load_pd(&s.f1[base]), f2 = _mm_load_pd(&s.f2[base]);
  __m128d f3 = _mm_load_pd(&s.f3[base]), f4 = _mm_load_pd(&s.f4[base]);
  __m128d acc = _mm_load_pd(&s.integ_acc[base]);

  const double* in[2] = {runs[0].input, runs[1].input};
  double* squared[2] = {runs[0].squared, runs[1].squared};
  double* integrated[2] = {runs[0].integrated, runs[1].integrated};
  const std::size_t sq_m[2] = {runs[0].squared_mask, runs[1].squared_mask};
  const std::size_t integ_m[2] = {runs[0].integrated_mask, runs[1].integrated_mask};
  std::int64_t n[2] = {runs[0].n, runs[1].n};
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
}

#endif

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

LaneQrsDetector::LaneQrsDetector(double fs_hz) : tier_(common::simd_tier()) {
  if (!std::isfinite(fs_hz)) throw std::invalid_argument("LaneQrsDetector: fs_hz not finite");
  if (!(kParams.bandpass_hi_hz < fs_hz / 2.0))
    throw std::invalid_argument("LaneQrsDetector: fs_hz must exceed twice the band-pass edge");
  // The learning period is the longest window cast to a sample count below;
  // bounding it keeps every cast in range.
  if (kParams.learning_s * fs_hz > 0x1p53)
    throw std::invalid_argument("LaneQrsDetector: learning window exceeds 2^53 samples");
  const dsp::Biquad hp = dsp::butterworth_highpass(kParams.bandpass_lo_hz, fs_hz);
  const dsp::Biquad lp = dsp::butterworth_lowpass(kParams.bandpass_hi_hz, fs_hz);
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
  win_ = std::max<std::size_t>(1, static_cast<std::size_t>(kParams.integration_window_s * fs_hz));
  coeffs_.win = static_cast<std::int64_t>(win_);
  refractory_ = static_cast<std::size_t>(kParams.refractory_s * fs_hz);
  learning_n_ = static_cast<std::int64_t>(static_cast<std::size_t>(kParams.learning_s * fs_hz));
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
  state.integrated.init(learning + decision_lag_ + 4 + kStepBlock);
  state.raw.init(std::max(learning + 2, win_ + decision_lag_ + 2) + kStepBlock);
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
  if (!state.have_kept || t > state.last_kept_time + kParams.refractory_s * 0.5) {
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
  const auto scalar = [&](std::size_t lane, std::size_t count) {
    step_scalar(lane, cur[lane], count);
    after_block(lane);
    cur[lane] += count;
    rem[lane] -= count;
    scalar_samples_ += count;
  };
  // A stream's first win_ samples run scalar: the first seeds the derivative
  // delay line, and until the integration window fills, its subtrahend and
  // divisor depend on n. The lockstep body below then has no per-lane branch.
  for (std::size_t lane = base; lane < base + width; ++lane) {
    while (rem[lane] > 0 && lanes_[lane].n < coeffs_.win) {
      const auto warmup = static_cast<std::size_t>(coeffs_.win - lanes_[lane].n);
      scalar(lane, std::min({rem[lane], warmup, kStepBlock}));
    }
  }
#if defined(__SSE2__) || defined(_M_X64)
  // Lockstep while both lanes of the pair have input (SSE2 tier only).
  while (width == 2 && rem[base] > 0 && rem[base + 1] > 0) {
    const std::size_t m = std::min({rem[base], rem[base + 1], kStepBlock});
    LaneRun runs[2];
    for (std::size_t w = 0; w < 2; ++w) {
      const std::size_t lane = base + w;
      store_raw(lane, cur[lane], m);
      LaneState& state = lanes_[lane];
      runs[w] = {cur[lane], state.squared.buf.data(), state.squared.mask,
                 state.integrated.buf.data(), state.integrated.mask, state.n};
    }
    lane_step_block_sse2(coeffs_, filt_, base, runs, m);
    for (std::size_t lane = base; lane < base + 2; ++lane) {
      lanes_[lane].n += static_cast<std::int64_t>(m);
      after_block(lane);
      cur[lane] += m;
      rem[lane] -= m;
    }
    vector_samples_ += 2 * m;
  }
#endif
  // Ragged tail, lone lane or scalar tier: nothing left in lockstep.
  for (std::size_t lane = base; lane < base + width; ++lane)
    while (rem[lane] > 0) scalar(lane, std::min(rem[lane], kStepBlock));
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

}  // namespace svt::ecg
