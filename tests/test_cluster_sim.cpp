#include <gtest/gtest.h>

#include <algorithm>

#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"

namespace harmony::exp {
namespace {

// A reduced catalog keeps the integration tests fast.
std::vector<WorkloadSpec> small_workload(std::size_t n, std::uint64_t seed = 2021) {
  auto catalog = make_catalog(seed);
  // Spread across app families: take every (80/n)-th job.
  std::vector<WorkloadSpec> out;
  const std::size_t stride = std::max<std::size_t>(1, catalog.size() / n);
  for (std::size_t i = 0; i < catalog.size() && out.size() < n; i += stride)
    out.push_back(catalog[i]);
  // Shorten convergence so tests run in milliseconds of wall time.
  for (auto& s : out) s.iterations = std::min<std::size_t>(s.iterations, 12);
  return out;
}

RunSummary run_policy(ClusterSimConfig config, std::size_t n_jobs,
                      std::size_t machines) {
  config.machines = machines;
  auto workload = small_workload(n_jobs);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  return sim.run();
}

TEST(ClusterSim, HarmonyCompletesAllJobs) {
  const auto summary = run_policy(ClusterSimConfig::harmony(), 12, 24);
  EXPECT_EQ(summary.jobs.size(), 12u);
  EXPECT_GT(summary.makespan, 0.0);
  for (const auto& j : summary.jobs) {
    EXPECT_GE(j.finish_time, j.submit_time);
  }
}

TEST(ClusterSim, IsolatedCompletesAllJobs) {
  const auto summary = run_policy(ClusterSimConfig::isolated(), 10, 30);
  EXPECT_EQ(summary.jobs.size(), 10u);
  EXPECT_EQ(summary.oom_events, 0u);  // isolated DoP respects memory
}

TEST(ClusterSim, NaiveCompletesAllJobs) {
  const auto summary = run_policy(ClusterSimConfig::naive(3), 9, 30);
  EXPECT_EQ(summary.jobs.size(), 9u);
}

TEST(ClusterSim, UtilizationWithinBounds) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 20;
  auto workload = small_workload(8);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  const auto summary = sim.run();
  EXPECT_GE(summary.avg_util.cpu, 0.0);
  EXPECT_LE(summary.avg_util.cpu, 1.0 + 1e-9);
  EXPECT_LE(summary.avg_util.net, 1.0 + 1e-9);
  for (const auto& u : sim.timeline().values()) {
    EXPECT_LE(u.cpu, 1.0 + 1e-9);
    EXPECT_LE(u.net, 1.0 + 1e-9);
  }
}

TEST(ClusterSim, IterationWallsSplitAtHalfTheIterations) {
  // §V-G compares the mean wall of the second half of all iterations, in
  // completion order: the split is at Σ iterations / 2.
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 24;
  auto workload = small_workload(12);
  std::size_t total = 0;
  for (const auto& s : workload) total += s.iterations;
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.run();
  const RunningStats& all = sim.iteration_walls();
  const RunningStats& second_half = sim.second_half_iteration_walls();
  EXPECT_EQ(all.size(), total);
  EXPECT_EQ(second_half.size(), total - total / 2);
  EXPECT_GT(second_half.min(), 0.0);
  EXPECT_GE(second_half.min(), all.min());
  EXPECT_LE(second_half.max(), all.max());
}

TEST(ClusterSim, HarmonyBeatsIsolatedOnJctAndMakespan) {
  const auto harmony = run_policy(ClusterSimConfig::harmony(), 16, 24);
  const auto isolated = run_policy(ClusterSimConfig::isolated(), 16, 24);
  EXPECT_LT(harmony.mean_jct(), isolated.mean_jct());
  EXPECT_LT(harmony.makespan, isolated.makespan * 1.05);
}

TEST(ClusterSim, HarmonyUtilizationAboveIsolated) {
  ClusterSimConfig hc = ClusterSimConfig::harmony();
  hc.machines = 24;
  auto workload = small_workload(16);
  ClusterSim hsim(hc, workload, batch_arrivals(workload.size()));
  const auto h = hsim.run();

  ClusterSimConfig ic = ClusterSimConfig::isolated();
  ic.machines = 24;
  ClusterSim isim(ic, workload, batch_arrivals(workload.size()));
  const auto i = isim.run();

  EXPECT_GT(h.avg_util.cpu, i.avg_util.cpu);
}

TEST(ClusterSim, PredictionErrorsStaySmall) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 24;
  auto workload = small_workload(12);
  for (auto& s : workload) s.iterations = 30;  // enough steady state to measure
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.run();
  const auto& errs = sim.prediction_errors();
  ASSERT_GT(errs.group_iteration_rel_error.size(), 0u);
  // Small multi-job groups pay pipeline-fill gaps Eq. 1 doesn't model; the
  // full-size experiment (bench_fig13) lands lower.
  EXPECT_LT(errs.group_iteration_rel_error.mean(), 0.25);
}

TEST(ClusterSim, SpillPreventsOom) {
  // Without spill, a deliberately memory-tight run triggers OOM events;
  // with spill it must not.
  ClusterSimConfig no_spill = ClusterSimConfig::harmony();
  no_spill.spill_enabled = false;
  no_spill.machines = 12;
  ClusterSimConfig with_spill = ClusterSimConfig::harmony();
  with_spill.machines = 12;

  auto workload = small_workload(10);
  ClusterSim sim_no(no_spill, workload, batch_arrivals(workload.size()));
  const auto summary_no = sim_no.run();
  ClusterSim sim_yes(with_spill, workload, batch_arrivals(workload.size()));
  const auto summary_yes = sim_yes.run();
  EXPECT_EQ(summary_yes.oom_events, 0u);
  EXPECT_GE(summary_no.oom_events, summary_yes.oom_events);
}

TEST(ClusterSim, PoissonArrivalsRespectSubmitTimes) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 16;
  auto workload = small_workload(8);
  const auto arrivals = poisson_arrivals(workload.size(), 300.0, 3);
  ClusterSim sim(config, workload, arrivals);
  const auto summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), 8u);
  for (const auto& j : summary.jobs) {
    EXPECT_DOUBLE_EQ(j.submit_time, arrivals[j.job]);
    EXPECT_GT(j.finish_time, j.submit_time);
  }
}

TEST(ClusterSim, GroupStatsPopulated) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 24;
  auto workload = small_workload(12);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.run();
  EXPECT_GT(sim.group_dop_samples().size(), 0u);
  EXPECT_GT(sim.group_size_samples().size(), 0u);
  EXPECT_GT(sim.avg_concurrent_jobs(), 0.0);
  EXPECT_GT(sim.sched_invocations(), 0u);
}

TEST(ClusterSim, AlphaStatsTracked) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 10;  // tight memory: spill must engage
  auto workload = small_workload(8);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.run();
  const auto stats = sim.alpha_stats();
  EXPECT_GE(stats.mean, 0.0);
  EXPECT_LE(stats.max, 1.0);
}

TEST(ClusterSim, MismatchedArrivalsThrow) {
  auto workload = small_workload(4);
  EXPECT_THROW(ClusterSim(ClusterSimConfig::harmony(), workload, batch_arrivals(3)),
               std::invalid_argument);
}

TEST(CoLocationOoms, TripleOverflowsPairFits) {
  // Fig. 4's memory story with Table I sizes on 16 machines.
  const auto catalog = make_catalog();
  auto find = [&](const std::string& app, const std::string& ds) {
    for (const auto& s : catalog)
      if (s.app == app && s.dataset == ds) return s;
    throw std::logic_error("not found");
  };
  const auto nmf = find("NMF", "Netflix64x");
  const auto mlr = find("MLR", "Synthetic16K");
  const auto lasso = find("Lasso", "SyntheticA");
  cluster::MachineSpec spec;
  EXPECT_FALSE(co_location_ooms({nmf, mlr}, 16, spec));
  EXPECT_FALSE(co_location_ooms({nmf, lasso}, 16, spec));
  EXPECT_TRUE(co_location_ooms({nmf, mlr, lasso}, 16, spec));
}

class PolicySweep : public ::testing::TestWithParam<int> {};

TEST_P(PolicySweep, AllJobsFinishExactlyOnce) {
  ClusterSimConfig config;
  switch (GetParam()) {
    case 0:
      config = ClusterSimConfig::isolated();
      break;
    case 1:
      config = ClusterSimConfig::naive(7);
      break;
    default:
      config = ClusterSimConfig::harmony();
      break;
  }
  config.machines = 20;
  auto workload = small_workload(10);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  const auto summary = sim.run();
  ASSERT_EQ(summary.jobs.size(), 10u);
  std::vector<std::uint32_t> ids;
  for (const auto& j : summary.jobs) ids.push_back(j.job);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicySweep, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace harmony::exp
