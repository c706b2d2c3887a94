#include <gtest/gtest.h>

#include "harmony/regrouper.h"

namespace harmony::core {
namespace {

SchedJob job(JobId id, double cpu_work, double t_net) {
  return SchedJob{id, JobProfile{cpu_work, t_net}};
}

TEST(RegrouperTest, SimilarWithinFivePercent) {
  const JobProfile a{100.0, 10.0};
  const JobProfile b{103.0, 10.2};  // ~3% off in both metrics
  const JobProfile c{160.0, 10.0};  // way off in iteration time
  EXPECT_TRUE(similar_jobs(a, b, 8));
  EXPECT_FALSE(similar_jobs(a, c, 8));
}

TEST(RegrouperTest, ArrivalWaitsWhenIdleJobsExist) {
  // Other profiled/paused jobs exist => Harmony is already satisfied with the
  // running set; the new arrival waits.
  std::vector<SchedJob> idle{job(5, 100, 10)};
  std::vector<RunningGroup> groups{{{job(1, 80, 20)}, 8}};
  const auto action = regroup_on_arrival(job(9, 50, 50), idle, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

TEST(RegrouperTest, ArrivalJoinsComplementaryGroup) {
  // Group 0 is network-bound; a CPU-heavy newcomer raises its utilization.
  std::vector<RunningGroup> groups{
      {{job(1, 16, 40)}, 8},   // t_cpu = 2, t_net = 40: network-bound
      {{job(2, 320, 38)}, 8},  // t_cpu = 40, t_net = 38: already balanced
  };
  const auto action = regroup_on_arrival(job(9, 240, 2), {}, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kAddToGroup);
  EXPECT_EQ(action.group_index, 0u);
}

TEST(RegrouperTest, ArrivalWaitsWhenNoGroupImproves) {
  // Perfectly utilized group: any addition lowers the score.
  std::vector<RunningGroup> groups{
      {{job(1, 80, 10), job(2, 80, 10)}, 8},  // sums: cpu 20, net 20 — saturated
  };
  // A monster job would make the group job-bound.
  const auto action = regroup_on_arrival(job(9, 8000, 800), {}, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

TEST(RegrouperTest, FinishReplacedBySimilarJob) {
  const SchedJob finished = job(1, 100, 10);
  std::vector<SchedJob> idle{job(7, 500, 80), job(8, 101, 10.1)};  // 8 is similar
  std::vector<RunningGroup> groups{{{job(2, 100, 10)}, 8}};
  const auto action = regroup_on_finish(finished, 0, idle, groups);
  ASSERT_EQ(action.kind, RegroupAction::Kind::kReplace);
  ASSERT_EQ(action.replacements.size(), 1u);
  EXPECT_EQ(action.replacements[0].id, 8u);
}

TEST(RegrouperTest, FinishReplacedByEquivalentPair) {
  const std::size_t dop = 8;
  const SchedJob finished = job(1, 160, 20);  // t_cpu = 20, t_net = 20
  // No single similar job, but 7+8 sum to (t_cpu 20, t_net 20).
  std::vector<SchedJob> idle{job(7, 80, 10), job(8, 80, 10), job(9, 4000, 1)};
  std::vector<RunningGroup> groups{{{job(2, 160, 20)}, dop}};
  const auto action = regroup_on_finish(finished, 0, idle, groups);
  ASSERT_EQ(action.kind, RegroupAction::Kind::kReplace);
  EXPECT_EQ(action.replacements.size(), 2u);
}

TEST(RegrouperTest, FinishWithNothingUsefulKeepsGroup) {
  const SchedJob finished = job(1, 100, 10);
  // Well-balanced remaining group, no idle jobs: benefit below 5 % => none.
  std::vector<RunningGroup> groups{{{job(2, 80, 10), job(3, 80, 10)}, 8}};
  const auto action = regroup_on_finish(finished, 0, {}, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

TEST(RegrouperTest, FinishTriggersRescheduleWhenBadlyImbalanced) {
  // The finished job was the only CPU-heavy one; the leftover group is badly
  // network-bound and an idle CPU-heavy job exists, but it is NOT similar
  // (so the cheap replacement paths fail) — a reschedule should win by >5 %.
  const SchedJob finished = job(1, 300, 5);
  std::vector<SchedJob> idle{job(7, 500, 30)};
  std::vector<RunningGroup> groups{
      {{job(2, 16, 40), job(3, 16, 38)}, 8},
  };
  const auto action = regroup_on_finish(finished, 0, idle, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kReschedule);
  EXPECT_FALSE(action.decision.empty());
}

TEST(RegrouperTest, ArrivalWithNoGroupsWaits) {
  const auto action = regroup_on_arrival(job(9, 50, 50), {}, {});
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

TEST(RegrouperTest, FinishOutOfRangeGroupIndexIsNone) {
  std::vector<RunningGroup> groups{{{job(2, 100, 10)}, 4}};
  const auto action = regroup_on_finish(job(1, 100, 10), 7, {}, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

class SimilaritySweep : public ::testing::TestWithParam<double> {};

TEST_P(SimilaritySweep, ThresholdBoundary) {
  const double delta = GetParam();
  const JobProfile base{100.0, 10.0};
  const JobProfile other{100.0 * (1.0 + delta), 10.0};
  // comp ratio moves too, so use generous margins: well inside vs well outside.
  if (delta <= 0.02) {
    EXPECT_TRUE(similar_jobs(base, other, 8));
  } else if (delta >= 0.10) {
    EXPECT_FALSE(similar_jobs(base, other, 8));
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, SimilaritySweep, ::testing::Values(0.0, 0.01, 0.02, 0.10, 0.2));

}  // namespace
}  // namespace harmony::core
