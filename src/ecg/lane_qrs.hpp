// Cross-patient SIMD lane engine for streaming Pan-Tompkins QRS detection:
// the library's one QRS detector.
//
// The scalar StreamingQrsDetector's serial IIR chain (~13 ns/sample; kept
// under tests/support as this engine's parity oracle) cannot be vectorised
// *within* one patient without changing FP rounding order — but a ward runs
// many patients through the *same* chain, so it vectorises *across* them:
// LaneQrsDetector holds up to kMaxLanes (8) patient streams as
// structure-of-arrays filter state and steps 2 lanes per SSE2 instruction,
// one patient per SIMD lane. History rings stay per lane (lanes sit at
// different absolute stream positions, so ring traffic is scalar — the ~20
// FLOPs of chain arithmetic per sample are what vectorise).
//
// Bit-exactness contract: each lane executes the exact per-sample operation
// sequence of StreamingQrsDetector — same expression order, elementwise IEEE
// vector arithmetic, no FMA — so every lane's beat stream is bit-identical
// to a dedicated scalar detector fed the same samples, for every dispatch
// tier (asserted by tests/test_lane_qrs.cpp). Divergent control flow
// (threshold learning, peak confirmation, refractory, dedup) runs per lane:
// samples are ingested in blocks of <= kStepBlock (64), then each lane
// replays its decision catch-up scalar. Deferring decisions by a bounded
// block is exact because decisions never feed back into the filter chain and
// the raw-search clamp min(raw_end, i + win/4) is unaffected by a later
// raw_end (the decision lag is exactly win/4); the history rings carry
// kStepBlock extra capacity to cover the deferral. The replay is a
// candidate scan: only local maxima of the integrated signal (~5% of
// samples) can change decision state, so each span of <= 64 samples is
// reduced to a bitmask of them (two SSE2 compares per 2 samples), and the
// threshold logic visits the set bits in order.
//
// Lockstep has one shape: the two lanes of a fixed slot pair (0/1, 2/3, ...)
// both have input for the round and are both past integrator warmup (at
// least win samples seen, the 150 ms window), so the kernel's window
// subtrahend and divisor are the same for every sample and lane. Everything
// else takes the scalar per-lane step, which keeps the lane's filter column
// in registers for the block: a stream's first win samples (the first also
// seeds the derivative delay line), ragged tails (one lane of the pair ran
// out of samples for the round) and lanes with no partner. The kernel
// touches only its pair's filter columns, so an idle lane's state is never
// written. vector_samples() / scalar_samples() expose the split. Each
// block's input reaches the raw ring (read only by the R-peak search) as
// one contiguous copy per lane, not a store per sample.
//
// Lane lifecycle: lanes occupy fixed slots (no state moves on churn), so
// patients join (add_lane) and leave (remove_lane) without perturbing other
// lanes' results; a freed slot keeps its ring allocations pooled for the
// next occupant, bounding resident memory by the pack width, not by patient
// churn.
//
// Dispatch: the tier is common::simd_tier() at construction — SSE2 on
// x86-64, where it is the baseline ISA, scalar elsewhere (see
// common/simd_dispatch.hpp). SVT_LANE_ISA=scalar forces the scalar path for
// CI parity coverage. There is no wider kernel: a 4-wide AVX2 step measured
// no faster on the ward workloads, because instruction throughput, not the
// loop-carried filter chain, bounds a lane step: the 2-lane SSE2 loop is
// ~80 instructions (per-lane ring stores, window-subtrahend loads,
// coefficient spills) that take about twice as long to issue as its
// recurrence (~10 cycles) takes to resolve.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/simd_dispatch.hpp"

namespace svt::ecg {

/// The Pan-Tompkins chain: band-pass (5-15 Hz) -> five-point derivative ->
/// squaring -> moving-window integration -> adaptive signal and noise
/// thresholds (no search-back pass). LaneQrsDetector runs these defaults;
/// the test oracles (tests/support) take them as a parameter.
struct PanTompkinsParams {
  double bandpass_lo_hz = 5.0;
  double bandpass_hi_hz = 15.0;
  double integration_window_s = 0.150;
  double refractory_s = 0.200;  ///< Minimum spacing between QRS complexes.
  double learning_s = 2.0;      ///< Initial threshold-learning period.
};

namespace detail {

inline constexpr std::size_t kMaxLanes = 8;

/// Lane-invariant chain coefficients (same fs and band-pass for every lane).
struct LaneCoeffs {
  double hp_b0 = 1.0, hp_b1 = 0.0, hp_b2 = 0.0, hp_a1 = 0.0, hp_a2 = 0.0;
  double lp_b0 = 1.0, lp_b1 = 0.0, lp_b2 = 0.0, lp_a1 = 0.0, lp_a2 = 0.0;
  double fs = 0.0;
  std::int64_t win = 1;  ///< Integration window length in samples.
};

/// Structure-of-arrays filter-chain state, indexed by lane slot. Aligned so
/// a slot pair loads into one SSE2 register.
struct LaneFilterState {
  alignas(64) double hp_x1[kMaxLanes] = {}, hp_x2[kMaxLanes] = {};
  alignas(64) double hp_y1[kMaxLanes] = {}, hp_y2[kMaxLanes] = {};
  alignas(64) double lp_x1[kMaxLanes] = {}, lp_x2[kMaxLanes] = {};
  alignas(64) double lp_y1[kMaxLanes] = {}, lp_y2[kMaxLanes] = {};
  alignas(64) double f1[kMaxLanes] = {}, f2[kMaxLanes] = {};
  alignas(64) double f3[kMaxLanes] = {}, f4[kMaxLanes] = {};
  alignas(64) double integ_acc[kMaxLanes] = {};
};

}  // namespace detail

/// One detected heartbeat: where its R peak sits in the raw stream and the
/// raw-signal amplitude there.
struct Beat {
  std::int64_t sample_index = 0;  ///< Absolute index into the patient stream.
  double amplitude_mv = 0.0;      ///< Raw ECG value at the R peak.
};

/// Growable ring of beats ordered by sample index: beats append at the
/// tail as they are confirmed and are dropped from the head as the window
/// stride advances. Capacity doubles when full (amortised; no steady-state
/// allocation once sized for the widest window).
class BeatRing {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Allocated slots (for residency accounting; power of two once grown).
  std::size_t capacity() const { return buf_.size(); }

  /// Drop every beat; keeps the allocation (ring reuse across streams).
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// i-th oldest beat (0 = head).
  const Beat& operator[](std::size_t i) const {
    SVT_ASSERT(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void push_back(const Beat& beat) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = beat;
    ++size_;
  }

  /// Drop beats from the head whose sample index is < `sample_index`.
  void drop_before(std::int64_t sample_index) {
    while (size_ > 0 && buf_[head_ & (buf_.size() - 1)].sample_index < sample_index) {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }
  }

 private:
  void grow();

  std::vector<Beat> buf_;  ///< Power-of-two capacity (0 until first push).
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// simd_tier_name(common::simd_tier()): "scalar" or "sse2" — the tier a
/// pack constructed now runs at.
const char* lane_isa_name();

/// A pack of up to kMaxLanes same-rate patient streams stepped in SIMD
/// lockstep, each lane bit-identical to a StreamingQrsDetector.
class LaneQrsDetector {
 public:
  static constexpr std::size_t kMaxLanes = detail::kMaxLanes;

  /// One lane's input for a push() round.
  struct LaneChunk {
    std::size_t lane = 0;
    std::span<const double> samples;
  };

  /// Runs the default PanTompkinsParams at `fs_hz`. Throws
  /// std::invalid_argument unless fs_hz is finite, above twice the 15 Hz
  /// band-pass edge, and its 2 s learning window fits in 2^53 samples.
  /// Construction allocates nothing per lane; ring storage appears on
  /// add_lane.
  explicit LaneQrsDetector(double fs_hz);

  /// Claim a free lane slot for a new stream (fresh detector state; pooled
  /// ring storage from a previous occupant is reused). Requires
  /// free_lanes() > 0.
  std::size_t add_lane();

  /// Release a lane slot. Other lanes' streams and results are untouched;
  /// the slot's ring storage stays pooled for the next occupant.
  void remove_lane(std::size_t lane);

  bool lane_active(std::size_t lane) const { return lanes_[check(lane)].active; }
  std::size_t active_lanes() const { return active_count_; }
  std::size_t free_lanes() const { return kMaxLanes - active_count_; }

  /// Advance several lanes together — the lane-parallel hot path. Chunks
  /// may differ in length (ragged tails run scalar); at most one chunk per
  /// lane per call. Confirmed beats land in each lane's beats() ring.
  void push(std::span<const LaneChunk> chunks);

  /// Single-lane convenience (exactly push() of one chunk).
  void push_one(std::size_t lane, std::span<const double> samples_mv);

  /// End-of-record flush for one lane; StreamingQrsDetector::finish
  /// semantics. Other lanes are unaffected.
  void finish(std::size_t lane);

  const BeatRing& beats(std::size_t lane) const { return lanes_[check(lane)].beats; }
  void drop_beats_before(std::size_t lane, std::int64_t sample_index) {
    lanes_[check(lane)].beats.drop_before(sample_index);
  }
  std::int64_t samples_seen(std::size_t lane) const { return lanes_[check(lane)].n; }
  std::int64_t final_through(std::size_t lane) const;
  std::int64_t finality_lag() const {
    return static_cast<std::int64_t>(win_ + decision_lag_);
  }
  double fs_hz() const { return coeffs_.fs; }

  /// Tier this pack dispatches to (fixed at construction).
  common::SimdTier tier() const { return tier_; }

  /// Samples stepped in vector lockstep / by the scalar fallback, summed
  /// over all lanes. scalar/(scalar+vector) is the scalar-tail fraction.
  std::uint64_t vector_samples() const { return vector_samples_; }
  std::uint64_t scalar_samples() const { return scalar_samples_; }

  /// Ring + beat storage currently resident across all lane slots
  /// (including pooled storage of freed slots) — bounded by kMaxLanes times
  /// the per-stream ring footprint, independent of patient churn.
  std::size_t resident_bytes() const;

 private:
  /// Power-of-two, absolute-indexed history ring (same scheme as
  /// StreamingQrsDetector::HistoryRing).
  struct Ring {
    void init(std::size_t min_capacity);
    double& at(std::int64_t index) { return buf[static_cast<std::size_t>(index) & mask]; }
    double at(std::int64_t index) const { return buf[static_cast<std::size_t>(index) & mask]; }
    std::vector<double> buf;
    std::size_t mask = 0;
  };

  struct LaneState {
    Ring squared, integrated, raw;
    BeatRing beats;
    std::int64_t n = 0;
    std::int64_t cursor = 1;
    bool active = false;
    bool finished = false;
    bool thresholds_ready = false;
    double spki = 0.0;
    double npki = 0.0;
    std::int64_t last_peak_idx = 0;
    bool have_peak = false;
    double last_kept_time = 0.0;
    bool have_kept = false;
  };

  static std::size_t check(std::size_t lane) {
    SVT_ASSERT(lane < kMaxLanes);
    return lane;
  }

  void reset_lane(std::size_t lane);
  /// Copy a block's input into the lane's raw ring at [n, n + count).
  void store_raw(std::size_t lane, const double* x, std::size_t count);
  void step_scalar(std::size_t lane, const double* x, std::size_t count);
  void after_block(std::size_t lane);
  void learn_thresholds(std::size_t lane, std::int64_t learning);
  void replay_decisions(std::size_t lane, std::int64_t limit, std::int64_t raw_end);
  void take_peak(std::size_t lane, std::int64_t i, std::int64_t raw_end);
  void run_group(std::size_t base, std::size_t width, std::array<const double*, kMaxLanes>& cur,
                 std::array<std::size_t, kMaxLanes>& rem);

  detail::LaneCoeffs coeffs_;
  detail::LaneFilterState filt_;
  std::size_t win_ = 0;
  std::size_t refractory_ = 0;
  std::int64_t learning_n_ = 0;
  std::size_t decision_lag_ = 0;
  common::SimdTier tier_ = common::SimdTier::kScalar;

  std::array<LaneState, kMaxLanes> lanes_;
  std::size_t active_count_ = 0;
  std::uint64_t vector_samples_ = 0;
  std::uint64_t scalar_samples_ = 0;
};

}  // namespace svt::ecg
