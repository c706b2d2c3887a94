// Managed-runtime memory-pressure model.
//
// The paper runs on the JVM, where two failure modes motivate the spill/reload
// mechanism (§II-B, §IV-C): garbage-collection overhead grows as the heap
// fills, and exceeding the heap kills the job with an OOM error. We model GC
// overhead as a multiplicative slowdown on compute that is 1 below a pressure
// threshold and grows superlinearly as occupancy approaches 1:
//
//     slowdown(occ) = 1 + k * ((occ - θ)⁺ / (1 - occ + ε))²
//
// This gives the α hill-climber a smooth but sharply-rising cost for keeping
// too much data resident, matching the paper's observation that "when α is too
// low, GC explodes" (§V-G).
#pragma once

#include <algorithm>

namespace harmony::cluster {

// Occupancy where GC overhead becomes measurable (θ). JVM collectors
// typically stay cheap until the old generation passes ~70 % of the heap.
inline constexpr double kGcThreshold = 0.70;
// Scales how fast the slowdown grows past the threshold (k): the curve costs
// ~1.6x at occupancy 0.93, ~2x at the OOM line and ~4x at full occupancy.
inline constexpr double kGcSteepness = 0.35;
// Keeps the slowdown finite exactly at occupancy 1 (ε).
inline constexpr double kGcEpsilon = 0.10;
// Occupancy above which allocation fails (OOM). The slack below 1.0 reflects
// non-heap overheads (metaspace, direct buffers, OS).
inline constexpr double kOomOccupancy = 0.95;

// Multiplicative compute slowdown at `occupancy` = resident/capacity.
inline double gc_slowdown(double occupancy) noexcept {
  const double occ = std::clamp(occupancy, 0.0, 1.0);
  const double over = occ - kGcThreshold;
  if (over <= 0.0) return 1.0;
  const double ratio = over / (1.0 - occ + kGcEpsilon);
  return 1.0 + kGcSteepness * ratio * ratio;
}

inline bool oom(double occupancy) noexcept { return occupancy > kOomOccupancy; }

}  // namespace harmony::cluster
