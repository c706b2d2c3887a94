#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/machine.h"
#include "cluster/memory_model.h"

namespace harmony::cluster {
namespace {

TEST(MachineSpec, PaperDefaults) {
  MachineSpec spec;
  EXPECT_EQ(spec.cores, 8);
  EXPECT_DOUBLE_EQ(spec.memory_bytes, 32.0 * kGiB);
  EXPECT_NEAR(spec.nic_bytes_per_sec, 1.375e8, 1e3);  // 1.1 Gbps
}

TEST(MemoryModel, NoSlowdownBelowThreshold) {
  EXPECT_DOUBLE_EQ(gc_slowdown(0.0), 1.0);
  EXPECT_DOUBLE_EQ(gc_slowdown(0.5), 1.0);
  EXPECT_DOUBLE_EQ(gc_slowdown(0.70), 1.0);
}

TEST(MemoryModel, SlowdownGrowsMonotonically) {
  double prev = 1.0;
  for (double occ = 0.71; occ <= 1.0; occ += 0.01) {
    const double s = gc_slowdown(occ);
    EXPECT_GE(s, prev);
    prev = s;
  }
  EXPECT_GT(gc_slowdown(0.99), 2.0);  // superlinear near full
}

TEST(MemoryModel, OomBoundary) {
  EXPECT_FALSE(oom(0.95));
  EXPECT_TRUE(oom(0.96));
}

TEST(MemoryModel, ClampsOutOfRangeOccupancy) {
  EXPECT_DOUBLE_EQ(gc_slowdown(-0.5), 1.0);
  EXPECT_GT(gc_slowdown(2.0), 1.0);  // clamped to 1.0, finite
  EXPECT_TRUE(std::isfinite(gc_slowdown(2.0)));
}

// The knee is fixed at kGcThreshold (0.70): occupancies up to it cost
// nothing, and 0.01 past the knee or past the swept occupancy already pays.
class GcThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(GcThresholdSweep, ThresholdIsExactKnee) {
  const double occ = GetParam();
  if (occ <= kGcThreshold) {
    EXPECT_DOUBLE_EQ(gc_slowdown(occ), 1.0);
  } else {
    EXPECT_GT(gc_slowdown(occ), 1.0);
  }
  EXPECT_GT(gc_slowdown(std::max(occ, kGcThreshold) + 0.01), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, GcThresholdSweep, ::testing::Values(0.5, 0.6, 0.7, 0.8));

}  // namespace
}  // namespace harmony::cluster
