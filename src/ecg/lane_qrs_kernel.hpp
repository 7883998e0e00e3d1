// Internal lockstep-kernel interface of the cross-patient lane engine.
//
// The per-sample Pan-Tompkins arithmetic (two biquads, five-point
// derivative, squaring, trailing integrator) is lane-invariant: every
// patient at the same sampling rate runs the *same* filter chain over
// *different* data. The kernels here step several patients' chains in
// lockstep — one patient per SIMD lane — so the vector path performs the
// exact per-lane operation sequence of StreamingQrsDetector::ingest and is
// bit-identical to it by construction (elementwise IEEE add/mul/sub/div,
// no FMA contraction, identical expression order).
//
// Layout: filter state is structure-of-arrays over kMaxLanes fixed lane
// slots; history rings stay per-lane (lanes sit at different absolute
// stream positions, so ring traffic is scalar — the ~20 FLOPs of chain
// arithmetic per sample are what vectorise). That ring traffic, not the
// loop-carried biquad recurrence, is what bounds a step: the loop is
// instruction-throughput bound, so the kernel writes only the two filter
// output rings (one half-register store per lane) and the caller fills the
// raw ring with a block copy. Divergent control flow (threshold learning,
// peak confirmation, dedup) never runs here: the caller defers it and
// replays it per lane after each block.
#pragma once

#include <cstddef>
#include <cstdint>

namespace svt::ecg::detail {

inline constexpr std::size_t kMaxLanes = 8;

/// Lockstep blocks are capped at this many samples so the deferred per-lane
/// decision catch-up never trails the stream by more than kStepBlock; the
/// history rings carry exactly this much extra capacity.
inline constexpr std::size_t kStepBlock = 64;

/// Input for disengaged lanes: the kernel still computes their (discarded)
/// chain values, and a shared zero block keeps that branch-free.
extern const double kZeros[kStepBlock];

/// Lane-invariant chain coefficients (same fs and band-pass for every lane).
struct LaneCoeffs {
  double hp_b0 = 1.0, hp_b1 = 0.0, hp_b2 = 0.0, hp_a1 = 0.0, hp_a2 = 0.0;
  double lp_b0 = 1.0, lp_b1 = 0.0, lp_b2 = 0.0, lp_a1 = 0.0, lp_a2 = 0.0;
  double fs = 0.0;
  std::int64_t win = 1;  ///< Integration window length in samples.
};

/// Structure-of-arrays filter-chain state, indexed by lane slot. Aligned so
/// a vector group (2 consecutive slots) loads directly.
struct LaneFilterState {
  alignas(64) double hp_x1[kMaxLanes] = {}, hp_x2[kMaxLanes] = {};
  alignas(64) double hp_y1[kMaxLanes] = {}, hp_y2[kMaxLanes] = {};
  alignas(64) double lp_x1[kMaxLanes] = {}, lp_x2[kMaxLanes] = {};
  alignas(64) double lp_y1[kMaxLanes] = {}, lp_y2[kMaxLanes] = {};
  alignas(64) double f1[kMaxLanes] = {}, f2[kMaxLanes] = {};
  alignas(64) double f3[kMaxLanes] = {}, f4[kMaxLanes] = {};
  alignas(64) double integ_acc[kMaxLanes] = {};
};

/// One lane's cursor through a lockstep block: its input, its absolute
/// stream position and its (power-of-two, absolute-indexed) filter-output
/// rings. The raw ring is not here: the caller copies each block's input
/// into it with one contiguous copy before stepping.
struct LaneRun {
  const double* input = kZeros;  ///< `steps` samples to consume.
  double* squared = nullptr;
  std::size_t squared_mask = 0;
  double* integrated = nullptr;
  std::size_t integrated_mask = 0;
  std::int64_t n = 0;     ///< Absolute sample count; advanced iff engaged.
  bool engaged = false;   ///< Disengaged: compute-and-discard, no stores.
};

// Step `steps` (<= kStepBlock) samples for the lane slots [base, base+2) in
// SSE2 lockstep (x86-64 only; other targets run the scalar step). Disengaged
// lanes' filter-state entries are clobbered with don't-care values — the
// caller snapshots and restores any live ones — and their rings and `n`
// stay untouched. Engaged lanes must have n >= 1: the first sample of a
// stream seeds the derivative delay line and is peeled through the scalar
// step by the caller.
void lane_step_block_sse2(const LaneCoeffs& c, LaneFilterState& s, std::size_t base,
                          LaneRun* runs, std::size_t steps);

}  // namespace svt::ecg::detail
