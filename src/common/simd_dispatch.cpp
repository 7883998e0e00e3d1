#include "common/simd_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace svt::common {

namespace {

SimdTier parse_tier(const char* name, SimdTier fallback) {
  if (name == nullptr) return fallback;
  if (std::strcmp(name, "scalar") == 0) return SimdTier::kScalar;
  if (std::strcmp(name, "sse2") == 0) return SimdTier::kSse2;
  return fallback;  // Unknown value: ignore rather than abort a serving host.
}

SimdTier clamp_to_build(SimdTier tier) {
  const SimdTier widest = widest_simd_tier();
  return tier < widest ? tier : widest;
}

SimdTier initial_tier() {
  return clamp_to_build(parse_tier(std::getenv("SVT_LANE_ISA"), widest_simd_tier()));
}

std::atomic<SimdTier>& tier_state() {
  static std::atomic<SimdTier> tier{initial_tier()};
  return tier;
}

}  // namespace

SimdTier simd_tier() { return tier_state().load(std::memory_order_relaxed); }

SimdTier widest_simd_tier() {
#if defined(__SSE2__) || defined(_M_X64)
  return SimdTier::kSse2;
#else
  return SimdTier::kScalar;
#endif
}

void set_simd_tier_override(SimdTier tier) {
  tier_state().store(clamp_to_build(tier), std::memory_order_relaxed);
}

const char* simd_tier_name(SimdTier tier) {
  return tier == SimdTier::kSse2 ? "sse2" : "scalar";
}

}  // namespace svt::common
