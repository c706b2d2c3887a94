#include <gtest/gtest.h>

#include <set>

#include "baselines/isolated.h"
#include "baselines/oracle.h"
#include "common/rng.h"

namespace harmony::baselines {
namespace {

using core::JobId;
using core::JobProfile;
using core::SchedJob;

SchedJob job(JobId id, double cpu_work, double t_net) {
  return SchedJob{id, JobProfile{cpu_work, t_net}};
}

TEST(Isolated, PickDopKeepsCpuDominant) {
  // cpu_work 160, t_net 4: t_cpu(m) >= 6 while m <= 26 -> dop capped well
  // above 1.
  const std::size_t dop = isolated_dop(JobProfile{160, 4});
  EXPECT_GE(dop, 8u);
  EXPECT_LE(dop, kIsolatedMaxMachines);
  // Network-heavy job: even DoP 2 violates dominance -> runs on 1 machine.
  EXPECT_EQ(isolated_dop(JobProfile{10, 100}), 1u);
}

TEST(Isolated, HigherBiasLowersDop) {
  // The rule only sees bias * t_net, so scaling t_net stands in for the bias:
  // these two profiles face an effective bias of 1.0 and 4.0.
  const JobProfile relaxed{320, 8 * 1.0 / kIsolatedCpuBias};
  const JobProfile strict{320, 8 * 4.0 / kIsolatedCpuBias};
  EXPECT_GT(isolated_dop(relaxed), isolated_dop(strict));
  // At the fixed bias the DoP sits exactly on the boundary: the last m with
  // t_cpu(m) >= kIsolatedCpuBias * t_net (26 for cpu_work 320, t_net 8).
  const JobProfile p{320, 8};
  const std::size_t dop = isolated_dop(p);
  EXPECT_EQ(dop, 26u);
  EXPECT_GE(p.t_cpu(dop), kIsolatedCpuBias * p.t_net);
  EXPECT_LT(p.t_cpu(dop + 1), kIsolatedCpuBias * p.t_net);
}

TEST(Oracle, MatchesSchedulerOnTrivialCase) {
  std::vector<SchedJob> jobs{job(0, 100, 10)};
  const auto [d, examined] = oracle_schedule(jobs, 4);
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].machines, 4u);
  EXPECT_EQ(examined, 1u);  // Bell(1) = 1
}

TEST(Oracle, ExaminesBellNumberOfPartitions) {
  std::vector<SchedJob> jobs{job(0, 100, 10), job(1, 90, 12), job(2, 50, 20),
                             job(3, 40, 25)};
  // Prefix lengths 1..4: Bell(1)+Bell(2)+Bell(3)+Bell(4) = 1+2+5+15.
  EXPECT_EQ(oracle_schedule(jobs, 8).partitions_examined, 23u);
}

TEST(Oracle, GroupsComplementaryPair) {
  // Perfectly complementary pair: the oracle must co-locate them.
  std::vector<SchedJob> jobs{job(0, 160, 4), job(1, 32, 20)};
  const auto d = oracle_schedule(jobs, 8).decision;
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].jobs.size(), 2u);
}

TEST(Oracle, SeparatesMonsterJob) {
  // Co-locating the monster with a small job makes the group job-bound; the
  // oracle should isolate it.
  std::vector<SchedJob> jobs{job(0, 8000, 500), job(1, 40, 5), job(2, 8, 37)};
  const auto d = oracle_schedule(jobs, 12).decision;
  for (const auto& g : d.groups) {
    const bool has_monster =
        std::find(g.jobs.begin(), g.jobs.end(), 0u) != g.jobs.end();
    if (has_monster) {
      EXPECT_EQ(g.jobs.size(), 1u);
    }
  }
}

TEST(Oracle, RefusesOversizedInput) {
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i <= kOracleMaxJobs; ++i) jobs.push_back(job(i, 100, 10));
  EXPECT_THROW(oracle_schedule(jobs, 8), std::invalid_argument);
}

// The heuristic scheduler should stay close to the oracle's score (§V-F:
// "slightly worse by up to around 2%" — we allow a modest margin).
class OracleGapSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleGapSweep, HeuristicWithinTenPercentOfOracle) {
  Rng rng(GetParam());
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i < 7; ++i)
    jobs.push_back(job(i, rng.uniform(40, 800), rng.uniform(4, 60)));

  const auto best = oracle_schedule(jobs, 16).decision;
  const auto mine = core::schedule(jobs, 16);
  ASSERT_FALSE(best.empty());
  ASSERT_FALSE(mine.empty());
  EXPECT_GE(best.score + 1e-9, mine.score);  // oracle is an upper bound
  // The paper reports ~2% gap on its workload (Fig. 14); adversarial random
  // pools can be worse because Algorithm 1 stops at the first prefix whose
  // utilization does not improve.
  EXPECT_GE(mine.score, best.score * 0.85);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleGapSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace harmony::baselines
