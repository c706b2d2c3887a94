// Deeper integration tests of the ClusterSim scheduling dynamics: regrouping
// behaviour, error injection, fixed-α mode, feature flags, and the policy
// presets under stress shapes (bursty arrivals, tiny clusters, monster jobs).
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"

namespace harmony::exp {
namespace {

std::vector<WorkloadSpec> subset(std::size_t n, std::size_t stride = 7,
                                 std::size_t iters = 12) {
  auto catalog = make_catalog();
  std::vector<WorkloadSpec> out;
  for (std::size_t i = 0; i < catalog.size() && out.size() < n; i += stride)
    out.push_back(catalog[i]);
  for (auto& s : out) s.iterations = std::min(s.iterations, iters);
  return out;
}

TEST(ClusterSimDynamics, RegroupEventsHappenOnCompletions) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 24;
  auto workload = subset(12);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  const auto summary = sim.run();
  // The initial schedule counts as one; completions add more.
  EXPECT_GE(summary.regroup_events, 1u);
  EXPECT_GT(summary.migration_overhead_sec, 0.0);
}

TEST(ClusterSimDynamics, ErrorInjectionIsSystematicPerJob) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 20;
  config.model_error_injection = 0.2;
  auto workload = subset(10);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  const auto summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), 10u);  // wrong profiles, still completes
}

TEST(ClusterSimDynamics, FixedAlphaDisablesHillClimb) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.grouping = GroupingPolicy::kOneGroup;
  config.machines = 16;
  config.fixed_alpha = 0.4;
  auto workload = subset(6);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.run();
  // No controller samples recorded in fixed mode.
  const auto stats = sim.alpha_stats();
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);  // alpha_samples_ only feeds from the climb
}

TEST(ClusterSimDynamics, BurstyArrivalsStillComplete) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 20;
  auto workload = subset(12);
  const auto arrivals = trace_arrivals(workload.size(), 120.0, 5);
  ClusterSim sim(config, workload, arrivals);
  const auto summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), 12u);
  for (const auto& j : summary.jobs) EXPECT_GE(j.submit_time, 0.0);
}

TEST(ClusterSimDynamics, TinyClusterSerializesWork) {
  // 3 machines for 6 jobs: heavy queueing, but everything must finish and
  // machine accounting must never go negative (create_group throws if so).
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 3;
  auto workload = subset(6);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  const auto summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), 6u);
}

TEST(ClusterSimDynamics, MonsterJobDoesNotStarveOthers) {
  auto workload = subset(6);
  // Make job 0 a monster: 20x the compute of everyone else.
  workload[0].cpu_work *= 20.0;
  workload[0].iterations = 12;
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 20;
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  const auto summary = sim.run();
  ASSERT_EQ(summary.jobs.size(), 6u);
  // Small jobs must not be dragged far past the monster's completion (the
  // scheduler may legitimately give the monster a huge DoP and finish it
  // early; what we forbid is the job-bound case of Fig. 8b).
  double monster_finish = 0.0;
  SampleSet other_finishes;
  for (const auto& j : summary.jobs) {
    if (j.job == workload[0].id)
      monster_finish = j.finish_time;
    else
      other_finishes.add(j.finish_time);
  }
  EXPECT_LT(other_finishes.quantile(0.5), monster_finish * 1.5);
}

TEST(ClusterSimDynamics, NaivePackOccupancyControlsMachines) {
  auto workload = subset(9);
  ClusterSimConfig tight = ClusterSimConfig::naive(3);
  tight.machines = 60;
  tight.naive_pack_occupancy = 0.9;
  ClusterSim sim_tight(tight, workload, batch_arrivals(workload.size()));
  sim_tight.run();

  ClusterSimConfig loose = ClusterSimConfig::naive(3);
  loose.machines = 60;
  loose.naive_pack_occupancy = 0.5;
  ClusterSim sim_loose(loose, workload, batch_arrivals(workload.size()));
  sim_loose.run();

  // Looser occupancy target => more machines per group on average.
  EXPECT_GE(sim_loose.group_dop_samples().mean(), sim_tight.group_dop_samples().mean());
}

TEST(ClusterSimDynamics, SpillOffUsesFallbackIsolatedGroups) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.spill_enabled = false;
  config.machines = 40;
  auto workload = subset(8);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  const auto summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), 8u);  // memory guard must not deadlock
}

TEST(ClusterSimDynamics, SchedulerWallTimeIsTracked) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 20;
  auto workload = subset(10);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.run();
  EXPECT_GT(sim.sched_invocations(), 0u);
  EXPECT_GE(sim.total_sched_seconds(), 0.0);
  EXPECT_LT(sim.total_sched_seconds(), 5.0);  // §V-F: scheduling stays cheap
}

}  // namespace
}  // namespace harmony::exp
