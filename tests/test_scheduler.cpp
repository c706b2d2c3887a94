#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>

#include "common/rng.h"
#include "harmony/scheduler.h"

namespace harmony::core {
namespace {

SchedJob job(JobId id, double cpu_work, double t_net) {
  return SchedJob{id, JobProfile{cpu_work, t_net}};
}

// Collects all job ids placed by a decision.
std::multiset<JobId> placed_ids(const ScheduleDecision& d) {
  std::multiset<JobId> ids;
  for (const GroupPlan& g : d.groups)
    for (JobId id : g.jobs) ids.insert(id);
  return ids;
}

std::size_t total_machines(const ScheduleDecision& d) {
  std::size_t total = 0;
  for (const GroupPlan& g : d.groups) total += g.machines;
  return total;
}

TEST(PickNumGroups, BalancesCpuAgainstNet) {
  // Each job: cpu_work = 100, t_net = 10. With M = 100, T_cpu(M/nG) matches
  // t_net when DoP = 10, i.e. nG = 10 — but only 4 jobs exist, so <= 4.
  std::vector<SchedJob> jobs{job(0, 100, 10), job(1, 100, 10), job(2, 100, 10),
                             job(3, 100, 10)};
  const std::size_t ng = pick_num_groups(jobs, 100);
  EXPECT_LE(ng, 4u);
  EXPECT_GE(ng, 1u);
}

TEST(PickNumGroups, CpuHeavyJobsPreferFewGroups) {
  // Very CPU-heavy: bigger DoP (fewer groups) balances |T_cpu - T_net|.
  std::vector<SchedJob> cpu_heavy{job(0, 1000, 1), job(1, 1000, 1), job(2, 1000, 1),
                                  job(3, 1000, 1)};
  std::vector<SchedJob> net_heavy{job(0, 10, 50), job(1, 10, 50), job(2, 10, 50),
                                  job(3, 10, 50)};
  EXPECT_LE(pick_num_groups(cpu_heavy, 16), pick_num_groups(net_heavy, 16));
}

TEST(PickNumGroups, EmptyJobsDefaultsToOneGroup) {
  EXPECT_EQ(pick_num_groups({}, 100), 1u);
}

TEST(PickNumGroups, ZeroMachinesDefaultsToOneGroup) {
  std::vector<SchedJob> jobs{job(0, 100, 10), job(1, 100, 10)};
  EXPECT_EQ(pick_num_groups(jobs, 0), 1u);
}

TEST(PickNumGroups, SingleJobGetsOneGroup) {
  // max_groups = jobs.size() caps the search at 1, whatever the balance says.
  std::vector<SchedJob> net_heavy{job(0, 1, 1000)};
  EXPECT_EQ(pick_num_groups(net_heavy, 64), 1u);
}

TEST(PickNumGroups, TiesResolveToSmallestGroupCount) {
  // A job with t_net = 0 has cost |T_cpu(M/nG)| = cpu_work * nG / M, strictly
  // increasing in nG; a job with cpu_work = 0 has cost t_net independent of
  // nG. Jointly the total is strictly increasing, so nG = 1 wins outright —
  // and for exact ties the ascending scan with a strict '<' keeps the
  // smallest candidate. Exercise an exact tie: two jobs whose costs swap
  // symmetrically between nG = 1 and nG = 2.
  // cost(nG) = |a*nG/M - n_a| + |b*nG/M - n_b| with M = 2:
  //   job A: cpu 2, net 2  -> |nG - 2|   (cost 1 at nG=1, 0 at nG=2)
  //   job B: cpu 2, net 1  -> |nG - 1|   (cost 0 at nG=1, 1 at nG=2)
  // Total cost is 1 at both candidates: the tie must resolve to nG = 1.
  std::vector<SchedJob> jobs{job(0, 2, 2), job(1, 2, 1)};
  EXPECT_EQ(pick_num_groups(jobs, 2), 1u);
}

TEST(AssignJobs, PartitionIsCompleteAndDisjoint) {
  std::vector<SchedJob> jobs;
  Rng rng(5);
  for (JobId i = 0; i < 12; ++i)
    jobs.push_back(job(i, rng.uniform(10, 200), rng.uniform(1, 50)));
  const auto groups = assign_jobs(jobs, 3, 8);
  ASSERT_EQ(groups.size(), 3u);
  std::set<JobId> seen;
  std::size_t count = 0;
  for (const auto& g : groups)
    for (const SchedJob& j : g) {
      EXPECT_TRUE(seen.insert(j.id).second) << "duplicate job " << j.id;
      ++count;
    }
  EXPECT_EQ(count, 12u);
}

TEST(AssignJobs, SimilarSizesStayTogether) {
  // Two big jobs and four small ones: chunked assignment by sorted iteration
  // time keeps the two big ones in the same group (avoiding job-bound groups
  // everywhere).
  std::vector<SchedJob> jobs{job(0, 800, 100), job(1, 790, 100), job(2, 10, 2),
                             job(3, 11, 2),    job(4, 12, 2),    job(5, 10, 2)};
  const auto groups = assign_jobs(jobs, 3, 8);
  // Find group of job 0; job 1 must be in the same one.
  for (const auto& g : groups) {
    const bool has0 = std::any_of(g.begin(), g.end(), [](auto& j) { return j.id == 0; });
    const bool has1 = std::any_of(g.begin(), g.end(), [](auto& j) { return j.id == 1; });
    EXPECT_EQ(has0, has1);
  }
}

TEST(AssignJobs, SwapsReduceImbalance) {
  // Jobs with equal iteration time but opposite skews; fine-tuning should mix
  // CPU-heavy and network-heavy jobs within groups.
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i < 4; ++i) jobs.push_back(job(i, 80, 2));    // cpu-heavy
  for (JobId i = 4; i < 8; ++i) jobs.push_back(job(i, 16, 10));   // net-heavy
  const std::size_t dop = 8;
  const auto groups = assign_jobs(jobs, 2, dop);
  ASSERT_EQ(groups.size(), 2u);
  auto imbalance = [&](const std::vector<SchedJob>& g) {
    double cpu = 0, net = 0;
    for (const auto& j : g) {
      cpu += j.profile.t_cpu(dop);
      net += j.profile.t_net;
    }
    return std::abs(cpu - net);
  };
  // Both groups should be reasonably balanced — each holds a mix.
  for (const auto& g : groups) EXPECT_LT(imbalance(g), 25.0);
}

TEST(AllocateMachines, EveryGroupGetsAtLeastOne) {
  std::vector<std::vector<SchedJob>> groups{{job(0, 100, 1)}, {job(1, 1, 100)}};
  const auto alloc = allocate_machines(groups, 10);
  ASSERT_EQ(alloc.size(), 2u);
  EXPECT_GE(alloc[0], 1u);
  EXPECT_GE(alloc[1], 1u);
  EXPECT_LE(alloc[0] + alloc[1], 10u);
}

TEST(AllocateMachines, StopsAtBalancePoint) {
  // One job: t_cpu(m) = 60/m, t_net = 20 -> balance at m = 3; extra machines
  // past that only make the group network-bound and must not be burned.
  std::vector<std::vector<SchedJob>> groups{{job(0, 60, 20)}};
  const auto alloc = allocate_machines(groups, 50);
  EXPECT_EQ(alloc[0], 3u);
}

TEST(AllocateMachines, CpuBoundGroupGetsMore) {
  std::vector<std::vector<SchedJob>> groups{{job(0, 1000, 1)},   // very CPU-bound
                                            {job(1, 1, 100)}};   // network-bound
  const auto alloc = allocate_machines(groups, 12);
  EXPECT_GT(alloc[0], alloc[1]);
}

TEST(AllocateMachines, FewerMachinesThanGroupsThrows) {
  std::vector<std::vector<SchedJob>> groups{{job(0, 1, 1)}, {job(1, 1, 1)}, {job(2, 1, 1)}};
  EXPECT_THROW(allocate_machines(groups, 2), std::invalid_argument);
}

TEST(Schedule, EmptyInputs) {
  EXPECT_TRUE(schedule({}, 10).empty());
  EXPECT_THROW(schedule(std::vector<SchedJob>{job(0, 1, 1)}, 0), std::invalid_argument);
}

TEST(Schedule, InvalidProfileThrows) {
  std::vector<SchedJob> jobs{SchedJob{0, JobProfile{0.0, 0.0}}};
  EXPECT_THROW(schedule(jobs, 4), std::invalid_argument);
}

TEST(Schedule, SingleJobUsesAllMachines) {
  std::vector<SchedJob> jobs{job(0, 100, 10)};
  const auto d = schedule(jobs, 8);
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].machines, 8u);
  EXPECT_EQ(d.jobs_scheduled, 1u);
}

TEST(Schedule, ComplementaryPairBeatsSingleJob) {
  // A CPU-heavy and network-heavy pair multiplexes to near-full utilization;
  // the scheduler should co-locate them rather than stop at one job.
  std::vector<SchedJob> jobs{job(0, 160, 4), job(1, 32, 20)};
  const auto d = schedule(jobs, 8);
  EXPECT_EQ(d.jobs_scheduled, 2u);
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].jobs.size(), 2u);
  EXPECT_GT(d.predicted_util.cpu, 0.6);
}

TEST(Schedule, StopsGrowingWhenUtilizationDrops) {
  // First two jobs complement perfectly; the third is a monster that would
  // make everything job-bound.
  std::vector<SchedJob> jobs{job(0, 80, 10), job(1, 80, 10), job(2, 8000, 1000)};
  const auto d = schedule(jobs, 8);
  EXPECT_LE(d.jobs_scheduled, 2u);
}

TEST(Schedule, UtilizationWithinBounds) {
  Rng rng(17);
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i < 20; ++i)
    jobs.push_back(job(i, rng.uniform(50, 500), rng.uniform(5, 60)));
  const auto d = schedule(jobs, 40);
  EXPECT_GT(d.predicted_util.cpu, 0.0);
  EXPECT_LE(d.predicted_util.cpu, 1.0 + 1e-9);
  EXPECT_LE(d.predicted_util.net, 1.0 + 1e-9);
}

// Structural invariants across a parameter sweep.
class ScheduleInvariants
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(ScheduleInvariants, DecisionIsWellFormed) {
  const auto [num_jobs, machines, seed] = GetParam();
  Rng rng(seed);
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i < num_jobs; ++i)
    jobs.push_back(job(i, rng.uniform(20, 2000), rng.uniform(2, 120)));
  const auto d = schedule(jobs, machines);

  // (1) No duplicate placements; placed ids come from the input prefix.
  const auto ids = placed_ids(d);
  EXPECT_EQ(ids.size(), std::set<JobId>(ids.begin(), ids.end()).size());
  for (JobId id : ids) EXPECT_LT(id, num_jobs);
  EXPECT_EQ(ids.size(), d.jobs_scheduled);

  // (2) Machines: every group >= 1, total never exceeds the cluster (the
  // allocator may stop early at the compute/communication balance point).
  for (const GroupPlan& g : d.groups) {
    EXPECT_GE(g.machines, 1u);
    EXPECT_FALSE(g.jobs.empty());
  }
  EXPECT_LE(total_machines(d), machines);
  EXPECT_GE(total_machines(d), d.groups.size());

  // (3) Utilization within physical bounds.
  EXPECT_LE(d.predicted_util.cpu, 1.0 + 1e-9);
  EXPECT_LE(d.predicted_util.net, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleInvariants,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 8, 20, 50),
                       ::testing::Values<std::size_t>(4, 16, 100),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(Schedule, ScalesToThousandsOfJobs) {
  Rng rng(23);
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i < 2000; ++i)
    jobs.push_back(job(i, rng.uniform(20, 2000), rng.uniform(2, 120)));
  const auto start = std::chrono::steady_clock::now();
  const auto d = schedule(jobs, 2000);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_FALSE(d.empty());
  EXPECT_LT(elapsed, 5.0);  // §V-F: must stay interactive at scale
}

}  // namespace
}  // namespace harmony::core
