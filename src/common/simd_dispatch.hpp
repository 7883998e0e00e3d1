// Vector tier of the cross-patient lane kernel.
//
// The lane engine has one vector path, SSE2 (2 doubles/op), which is the
// x86-64 baseline: it needs no compile flag and no cpuid probe, so the
// widest tier is fixed when the library is built — SSE2 on x86-64, scalar
// elsewhere. Tests and CI can force the scalar path that non-x86 hosts run
// through the SVT_LANE_ISA environment variable ("scalar" or "sse2") or
// programmatically with set_simd_tier_override.
#pragma once

namespace svt::common {

/// Vector tiers in increasing width order (comparable with <).
enum class SimdTier { kScalar = 0, kSse2 = 1 };

/// Tier the lane engine runs at: the widest tier this build supports,
/// clamped by the SVT_LANE_ISA environment variable (read once) and by
/// set_simd_tier_override. Never reports a tier above widest_simd_tier().
SimdTier simd_tier();

/// Widest tier this build supports (SSE2 on x86-64, else scalar), ignoring
/// overrides.
SimdTier widest_simd_tier();

/// Force a tier at runtime (tests/bench). Clamped to widest_simd_tier();
/// pass that to restore. Not thread-safe against concurrent simd_tier()
/// callers — set it before spawning workers.
void set_simd_tier_override(SimdTier tier);

/// "scalar" or "sse2".
const char* simd_tier_name(SimdTier tier);

}  // namespace svt::common
