#include <gtest/gtest.h>

#include <cmath>

#include "harmony/perf_model.h"

namespace harmony::core {
namespace {

// Helper: a job profile from (t_cpu at `dop`, t_net).
JobProfile prof(double t_cpu_at_dop, double t_net, std::size_t dop) {
  return JobProfile{t_cpu_at_dop * static_cast<double>(dop), t_net};
}

TEST(JobProfile, CpuTimeScalesInverselyWithDop) {
  const JobProfile p{160.0, 10.0};
  EXPECT_DOUBLE_EQ(p.t_cpu(16), 10.0);
  EXPECT_DOUBLE_EQ(p.t_cpu(32), 5.0);  // Eq. 2
  EXPECT_DOUBLE_EQ(p.t_itr(16), 20.0);
  EXPECT_DOUBLE_EQ(p.comp_ratio(16), 0.5);
}

TEST(JobProfile, ZeroMachinesIsInfinite) {
  const JobProfile p{100.0, 1.0};
  EXPECT_TRUE(std::isinf(p.t_cpu(0)));
}

TEST(PerfModel, SingleJobIterationTime) {
  GroupShape g{{prof(10.0, 5.0, 4)}, 4};
  // max(10, 5, 15) = 15: a single job is always job-bound.
  EXPECT_DOUBLE_EQ(PerfModel::group_iteration_time(g), 15.0);
}

TEST(PerfModel, CpuBoundCase) {
  // Three CPU-heavy jobs: sum of COMP dominates (Fig. 8a mirrored).
  GroupShape g{{prof(10, 2, 4), prof(10, 2, 4), prof(10, 2, 4)}, 4};
  EXPECT_DOUBLE_EQ(PerfModel::group_iteration_time(g), 30.0);
  const Utilization u = PerfModel::group_utilization(g);
  EXPECT_DOUBLE_EQ(u.cpu, 1.0);  // CPU is the bottleneck: fully used
  EXPECT_DOUBLE_EQ(u.net, 6.0 / 30.0);
}

TEST(PerfModel, NetworkBoundCase) {
  // Fig. 8a: sum of network subtasks exceeds CPU subtasks.
  GroupShape g{{prof(2, 10, 4), prof(2, 10, 4), prof(2, 10, 4)}, 4};
  EXPECT_DOUBLE_EQ(PerfModel::group_iteration_time(g), 30.0);
  const Utilization u = PerfModel::group_utilization(g);
  EXPECT_DOUBLE_EQ(u.net, 1.0);
  EXPECT_DOUBLE_EQ(u.cpu, 0.2);
}

TEST(PerfModel, JobBoundCase) {
  // Fig. 8b: one huge job dominates; both resources partially idle.
  GroupShape g{{prof(20, 20, 4), prof(2, 2, 4), prof(2, 2, 4)}, 4};
  EXPECT_DOUBLE_EQ(PerfModel::group_iteration_time(g), 40.0);  // 20 + 20
  const Utilization u = PerfModel::group_utilization(g);
  EXPECT_LT(u.cpu, 1.0);
  EXPECT_LT(u.net, 1.0);
  EXPECT_DOUBLE_EQ(u.cpu, 24.0 / 40.0);
}

TEST(PerfModel, ComplementaryJobsReachHighUtilization) {
  // A CPU-heavy and a network-heavy job with matching totals interleave
  // perfectly — the core co-location win.
  GroupShape g{{prof(9, 3, 4), prof(3, 9, 4)}, 4};
  EXPECT_DOUBLE_EQ(PerfModel::group_iteration_time(g), 12.0);
  const Utilization u = PerfModel::group_utilization(g);
  EXPECT_DOUBLE_EQ(u.cpu, 1.0);
  EXPECT_DOUBLE_EQ(u.net, 1.0);
}

TEST(PerfModel, MoreMachinesShrinkCpuShare) {
  GroupShape small{{prof(10, 5, 4), prof(10, 5, 4)}, 4};
  GroupShape big = small;
  big.machines = 8;
  // Same cpu_work; at 8 machines each COMP halves.
  EXPECT_LT(PerfModel::group_iteration_time(big), PerfModel::group_iteration_time(small));
}

TEST(PerfModel, ClusterUtilizationWeightsByMachines) {
  GroupShape a{{prof(10, 10, 2)}, 2};   // u = (0.5, 0.5)
  GroupShape b{{prof(10, 2, 6), prof(2, 10, 6)}, 6};  // balanced pair
  const std::vector<GroupShape> groups{a, b};
  const Utilization u = PerfModel::cluster_utilization(groups);
  const Utilization ua = PerfModel::group_utilization(a);
  const Utilization ub = PerfModel::group_utilization(b);
  EXPECT_NEAR(u.cpu, (2.0 * ua.cpu + 6.0 * ub.cpu) / 8.0, 1e-12);
  EXPECT_NEAR(u.net, (2.0 * ua.net + 6.0 * ub.net) / 8.0, 1e-12);
}

TEST(PerfModel, EmptyGroupsIgnored) {
  GroupShape empty{{}, 4};
  GroupShape real{{prof(5, 5, 2)}, 2};
  const std::vector<GroupShape> groups{empty, real};
  const Utilization u = PerfModel::cluster_utilization(groups);
  EXPECT_DOUBLE_EQ(u.cpu, PerfModel::group_utilization(real).cpu);
}

TEST(PerfModel, ScoreWeightsCpuAboveNetwork) {
  // CPU-bound group: u = (1.0, 0.2); network-bound: u = (0.2, 1.0). Both hold
  // three jobs, so the per-job penalty cancels and only the CPU weighting
  // separates them.
  GroupShape cpu_bound{{prof(10, 2, 4), prof(10, 2, 4), prof(10, 2, 4)}, 4};
  GroupShape net_bound{{prof(2, 10, 4), prof(2, 10, 4), prof(2, 10, 4)}, 4};
  const double s_cpu = PerfModel::score(std::vector<GroupShape>{cpu_bound});
  const double s_net = PerfModel::score(std::vector<GroupShape>{net_bound});
  EXPECT_GT(s_cpu, s_net);
}

TEST(PerfModel, ScorePenalizesExtraJobs) {
  GroupShape two{{prof(9, 3, 4), prof(3, 9, 4)}, 4};
  GroupShape four{{prof(9, 3, 4), prof(3, 9, 4), prof(9, 3, 4), prof(3, 9, 4)}, 4};
  // Both reach u = (1,1)... four jobs only utilization-tie if totals double.
  const double s2 = PerfModel::score(std::vector<GroupShape>{two});
  const double s4 = PerfModel::score(std::vector<GroupShape>{four});
  EXPECT_GT(s2, s4);  // fewer jobs preferred at equal utilization
}

class UtilizationBounds
    : public ::testing::TestWithParam<std::tuple<double, double, std::size_t>> {};

TEST_P(UtilizationBounds, NeverExceedsOne) {
  const auto [t_cpu, t_net, machines] = GetParam();
  GroupShape g{{prof(t_cpu, t_net, machines), prof(t_net, t_cpu, machines)}, machines};
  const Utilization u = PerfModel::group_utilization(g);
  EXPECT_LE(u.cpu, 1.0 + 1e-12);
  EXPECT_LE(u.net, 1.0 + 1e-12);
  EXPECT_GE(u.cpu, 0.0);
  EXPECT_GE(u.net, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UtilizationBounds,
    ::testing::Values(std::make_tuple(1.0, 1.0, 1), std::make_tuple(10.0, 0.1, 4),
                      std::make_tuple(0.1, 10.0, 4), std::make_tuple(5.0, 5.0, 16),
                      std::make_tuple(100.0, 1.0, 32)));

}  // namespace
}  // namespace harmony::core
