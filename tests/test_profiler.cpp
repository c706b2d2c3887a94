#include <gtest/gtest.h>

#include "harmony/profiler.h"

namespace harmony::core {
namespace {

TEST(Profiler, EmptyHasNoProfile) {
  Profiler p;
  EXPECT_FALSE(p.has_profile(1));
  EXPECT_FALSE(p.is_profiled(1));
  EXPECT_FALSE(p.profile(1).has_value());
  EXPECT_EQ(p.sample_count(1), 0u);
}

TEST(Profiler, NormalizesCpuWorkByMachines) {
  Profiler p;
  // 10 s of COMP on 4 machines => 40 machine-seconds of work.
  p.record(1, 4, 10.0, 3.0);
  const auto prof = p.profile(1);
  ASSERT_TRUE(prof.has_value());
  EXPECT_DOUBLE_EQ(prof->cpu_work, 40.0);
  EXPECT_DOUBLE_EQ(prof->t_net, 3.0);
  // Recovered at another DoP (Eq. 2).
  EXPECT_DOUBLE_EQ(prof->t_cpu(8), 5.0);
}

TEST(Profiler, DopInvariantAcrossMigrations) {
  Profiler p;
  // The same job measured on different group sizes should agree.
  p.record(1, 4, 10.0, 3.0);   // 40 machine-sec
  p.record(1, 8, 5.0, 3.0);    // 40 machine-sec
  p.record(1, 16, 2.5, 3.0);   // 40 machine-sec
  const auto prof = p.profile(1);
  ASSERT_TRUE(prof.has_value());
  EXPECT_NEAR(prof->cpu_work, 40.0, 1e-9);
}

TEST(Profiler, MovingAverageTracksDrift) {
  Profiler p;
  p.record(2, 1, 10.0, 1.0);
  p.record(2, 1, 20.0, 1.0);
  const auto prof = p.profile(2);
  ASSERT_TRUE(prof.has_value());
  // 10 + kProfileEmaAlpha * (20 - 10).
  EXPECT_DOUBLE_EQ(prof->cpu_work, 13.0);
  EXPECT_DOUBLE_EQ(prof->t_net, 1.0);
  // A constant stream pulls both averages to it.
  for (int i = 0; i < 60; ++i) p.record(2, 1, 7.0, 4.0);
  EXPECT_NEAR(p.profile(2)->cpu_work, 7.0, 1e-5);
  EXPECT_NEAR(p.profile(2)->t_net, 4.0, 1e-5);
}

TEST(Profiler, IsProfiledAfterMinSamples) {
  static_assert(kProfileMinSamples == 3);
  Profiler p;
  p.record(3, 2, 1.0, 1.0);
  EXPECT_TRUE(p.has_profile(3));
  EXPECT_FALSE(p.is_profiled(3));
  p.record(3, 2, 1.0, 1.0);
  EXPECT_FALSE(p.is_profiled(3));
  p.record(3, 2, 1.0, 1.0);
  EXPECT_TRUE(p.is_profiled(3));
  EXPECT_EQ(p.sample_count(3), 3u);
}

TEST(Profiler, RejectsBadInputs) {
  Profiler p;
  EXPECT_THROW(p.record(1, 0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(p.record(1, 1, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(p.record(1, 1, 1.0, -1.0), std::invalid_argument);
}

TEST(Profiler, RecordRejectsNoJob) {
  Profiler p;
  EXPECT_THROW(p.record(kNoJob, 1, 1.0, 1.0), std::invalid_argument);
  EXPECT_FALSE(p.has_profile(kNoJob));
}

TEST(Profiler, IdPastLastRecordedReadsEmpty) {
  Profiler p;
  p.record(2, 1, 1.0, 1.0);
  for (const JobId id : {JobId{3}, JobId{1000}, kNoJob}) {
    EXPECT_FALSE(p.has_profile(id)) << id;
    EXPECT_FALSE(p.is_profiled(id)) << id;
    EXPECT_FALSE(p.profile(id).has_value()) << id;
    EXPECT_EQ(p.sample_count(id), 0u) << id;
  }
}

TEST(Profiler, HighIdLeavesLowerIdsEmpty) {
  Profiler p;
  p.record(50, 2, 3.0, 1.0);
  for (JobId id = 0; id < 50; ++id) {
    EXPECT_FALSE(p.has_profile(id)) << id;
    EXPECT_FALSE(p.profile(id).has_value()) << id;
    EXPECT_EQ(p.sample_count(id), 0u) << id;
  }
  ASSERT_TRUE(p.profile(50).has_value());
  EXPECT_DOUBLE_EQ(p.profile(50)->cpu_work, 6.0);
  EXPECT_EQ(p.sample_count(50), 1u);
}

TEST(Profiler, TracksMultipleJobsIndependently) {
  Profiler p;
  p.record(1, 2, 4.0, 1.0);
  p.record(2, 4, 4.0, 2.0);
  EXPECT_DOUBLE_EQ(p.profile(1)->cpu_work, 8.0);
  EXPECT_DOUBLE_EQ(p.profile(2)->cpu_work, 16.0);
  EXPECT_DOUBLE_EQ(p.profile(2)->t_net, 2.0);
}

}  // namespace
}  // namespace harmony::core
