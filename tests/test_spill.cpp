#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/machine.h"
#include "cluster/memory_model.h"
#include "harmony/spill_manager.h"

namespace harmony::core {
namespace {

using cluster::kGiB;

TEST(SpillCostModel, ResidentShrinksReloadGrowsWithAlpha) {
  const cluster::MachineSpec spec;
  const double input = 40.0 * kGiB, mod = 4.0 * kGiB;
  double prev_resident = 1e300, prev_reload = -1.0;
  for (double a = 0.0; a <= 1.0; a += 0.25) {
    const SpillCosts c = spill_costs(input, mod, a, 8, spec);
    EXPECT_LT(c.resident_bytes, prev_resident);
    EXPECT_GT(c.reload_seconds, prev_reload);
    prev_resident = c.resident_bytes;
    prev_reload = c.reload_seconds;
  }
}

TEST(SpillCostModel, MoreMachinesLowerPerMachineCosts) {
  const cluster::MachineSpec spec;
  const SpillCosts at4 = spill_costs(40.0 * kGiB, 4.0 * kGiB, 0.5, 4, spec);
  const SpillCosts at16 = spill_costs(40.0 * kGiB, 4.0 * kGiB, 0.5, 16, spec);
  EXPECT_GT(at4.resident_bytes, at16.resident_bytes);
  EXPECT_GT(at4.reload_seconds, at16.reload_seconds);
}

TEST(SpillCostModel, ExpansionFactorsApplyToResidentOnly) {
  const cluster::MachineSpec spec;
  // Resident: the expanded 8 GiB plus the per-job overhead.
  const SpillCosts c = spill_costs(8.0 * kGiB, 0.0, 0.0, 1, spec);
  EXPECT_DOUBLE_EQ(c.resident_bytes, 8.0 * kGiB * kInputMemExpansion + kPerJobOverheadBytes);
  // With alpha = 1 nothing of the input stays resident, and the reload and
  // deserialization move the RAW 8 GiB.
  const SpillCosts c1 = spill_costs(8.0 * kGiB, 0.0, 1.0, 1, spec);
  EXPECT_DOUBLE_EQ(c1.resident_bytes, kPerJobOverheadBytes);
  EXPECT_NEAR(c1.reload_seconds, 8.0 * kGiB / spec.disk_bytes_per_sec, 1e-9);
  EXPECT_DOUBLE_EQ(c1.deserialize_seconds, 8.0 * kGiB * kDeserializeSecPerByte);
}

TEST(SpillCostModel, ZeroMachinesThrows) {
  EXPECT_THROW(spill_costs(1.0, 1.0, 0.5, 0, cluster::MachineSpec{}), std::invalid_argument);
}

TEST(AlphaController, InitialAlphaRespectsMemoryBudget) {
  const cluster::MachineSpec spec;
  // Tiny job: fits entirely -> alpha 0.
  EXPECT_DOUBLE_EQ(AlphaController::initial_alpha(1.0 * kGiB, 0.5 * kGiB, 8, spec.memory_bytes,
                                                  cluster::kGcThreshold, spec),
                   0.0);
  // Huge job on few machines with a small share -> alpha near 1.
  const double a = AlphaController::initial_alpha(200.0 * kGiB, 10.0 * kGiB, 4,
                                                  spec.memory_bytes / 4.0,
                                                  cluster::kGcThreshold, spec);
  EXPECT_GT(a, 0.8);
}

TEST(AlphaController, InitialAlphaMonotoneInJobSize) {
  const cluster::MachineSpec spec;
  double prev = -1.0;
  for (double gb = 10.0; gb <= 160.0; gb *= 2.0) {
    const double a = AlphaController::initial_alpha(gb * kGiB, 1.0 * kGiB, 8,
                                                    spec.memory_bytes / 3.0,
                                                    cluster::kGcThreshold, spec);
    EXPECT_GE(a, prev);
    prev = a;
  }
}

// Hill climbing on a synthetic U-shaped objective should land near the
// optimum regardless of where it is (the §V-G experiment's essence). An
// optimum below kAlphaMin (0.1, 0.3) leaves the objective rising across the
// whole allowed range, so the climb must settle on the floor instead.
class HillClimbSweep : public ::testing::TestWithParam<double> {};

TEST_P(HillClimbSweep, ConvergesNearOptimum) {
  const double optimum = GetParam();
  // Iteration time: GC pain below the optimum, reload pain above it.
  auto objective = [optimum](double a) {
    const double d = a - optimum;
    return 50.0 + 120.0 * d * d + (a < optimum ? 40.0 * (optimum - a) : 10.0 * (a - optimum));
  };
  const double reachable = std::clamp(optimum, kAlphaMin, kAlphaMax);
  for (const double start : {0.5, 0.85}) {
    AlphaController ctl(start);
    double alpha = start;
    for (int i = 0; i < 60; ++i) alpha = ctl.observe(objective(alpha));
    EXPECT_NEAR(alpha, reachable, 0.05) << "start " << start;
  }
}

INSTANTIATE_TEST_SUITE_P(Optima, HillClimbSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.8, 0.85));

TEST(AlphaController, StaysInBounds) {
  // Always rewards a larger alpha, from a start above the ceiling.
  AlphaController up(0.95);
  EXPECT_DOUBLE_EQ(up.alpha(), kAlphaMax);
  double alpha = up.alpha();
  for (int i = 0; i < 30; ++i) {
    alpha = up.observe(10.0 - alpha);
    EXPECT_GE(alpha, kAlphaMin);
    EXPECT_LE(alpha, kAlphaMax);
  }
  EXPECT_GT(alpha, kAlphaMax - kAlphaStep);
  // Always rewards a smaller alpha, from a start below the floor.
  AlphaController down(0.0);
  EXPECT_DOUBLE_EQ(down.alpha(), kAlphaMin);
  alpha = down.alpha();
  for (int i = 0; i < 30; ++i) {
    alpha = down.observe(1.0 + alpha);
    EXPECT_GE(alpha, kAlphaMin);
    EXPECT_LE(alpha, kAlphaMax);
  }
  EXPECT_LT(alpha, kAlphaMin + kAlphaStep);
}

TEST(AlphaController, CountsObservations) {
  AlphaController ctl(0.5);
  ctl.observe(1.0);
  ctl.observe(1.0);
  EXPECT_EQ(ctl.observations(), 2u);
}

}  // namespace
}  // namespace harmony::core
