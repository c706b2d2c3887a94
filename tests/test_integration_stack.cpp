// Cross-module integration tests: profiler->model->scheduler agreement on
// the real runtime, end-to-end checkpoint compatibility, spill-model
// consistency between the scheduler's predictions and the simulator's
// ground truth, and scheduler/regrouper interplay on catalog-shaped pools.
#include <gtest/gtest.h>

#include <memory>

#include "exp/workload.h"
#include "harmony/checkpoint.h"
#include "harmony/regrouper.h"
#include "harmony/runtime.h"
#include "harmony/scheduler.h"
#include "harmony/spill_manager.h"
#include "ml/lasso.h"
#include "ml/mlr.h"
#include "scratch_dir.h"

namespace harmony {
namespace {

using core::JobProfile;
using core::SchedJob;

TEST(IntegrationStack, MeasuredProfilesFeedTheScheduler) {
  // Train two jobs with very different shapes on the real runtime, feed the
  // *measured* profiles into Algorithm 1, and check the scheduler recognizes
  // the bigger job as the more compute-hungry one.
  core::LocalRuntime::Params params;
  params.machines = 2;
  params.nic_bytes_per_sec = 400e6;
  params.checkpoint_dir = tests::scratch_dir("integ-ckpt").string();
  core::LocalRuntime rt(params);

  core::RuntimeJobConfig big;
  big.app = std::make_shared<ml::MlrApp>(
      std::make_shared<ml::DenseDataset>(ml::make_classification(3000, 48, 8, 0.1, 1)));
  big.max_epochs = 6;
  const auto big_id = rt.submit(big);

  core::RuntimeJobConfig small;
  small.app = std::make_shared<ml::LassoApp>(
      std::make_shared<ml::DenseDataset>(ml::make_regression(300, 16, 4, 0.05, 2)));
  small.max_epochs = 6;
  const auto small_id = rt.submit(small);

  rt.run();
  const auto big_prof = rt.profiler().profile(big_id);
  const auto small_prof = rt.profiler().profile(small_id);
  ASSERT_TRUE(big_prof && small_prof);
  EXPECT_GT(big_prof->cpu_work, small_prof->cpu_work);

  std::vector<SchedJob> pool{{big_id, *big_prof}, {small_id, *small_prof}};
  const auto decision = core::schedule(pool, 8);
  EXPECT_FALSE(decision.empty());
  EXPECT_LE(decision.predicted_util.cpu, 1.0 + 1e-9);
}

TEST(IntegrationStack, RuntimeCheckpointReadableByStore) {
  // The runtime's pause checkpoint is a plain CheckpointStore file; an
  // external reader (e.g. a migration target) can load it directly.
  const auto dir = tests::scratch_dir("integ-ckpt");
  core::LocalRuntime::Params params;
  params.machines = 2;
  params.checkpoint_dir = dir.string();
  core::LocalRuntime rt(params);

  core::RuntimeJobConfig cfg;
  cfg.app = std::make_shared<ml::MlrApp>(
      std::make_shared<ml::DenseDataset>(ml::make_classification(500, 10, 4, 0.1, 3)));
  cfg.max_epochs = 200;
  const auto id = rt.submit(cfg);
  std::thread driver([&] { rt.run(); });
  rt.pause(id);

  core::CheckpointStore store(dir);
  ASSERT_TRUE(store.exists(id));
  const auto model = store.load(id);
  EXPECT_EQ(model.size(), cfg.app->param_dim());

  rt.resume(id);
  driver.join();
  rt.wait_idle();
  EXPECT_EQ(rt.result(id).epochs, 200u);
}

TEST(IntegrationStack, CatalogProfilesDriveGroupingEndToEnd) {
  // The 80-job catalog through Algorithm 1: groups must mix the families
  // (complementary resource use), not segregate them.
  const auto catalog = exp::make_catalog();
  std::vector<SchedJob> pool;
  for (const auto& s : catalog) pool.push_back(s.sched_job());
  const auto decision = core::schedule(pool, 100);
  ASSERT_GE(decision.groups.size(), 2u);

  // At least one group contains both a compute-heavy and a comm-heavy job.
  bool mixed = false;
  for (const auto& g : decision.groups) {
    bool has_comp = false, has_comm = false;
    for (auto id : g.jobs) {
      const double r = catalog[id].profile().comp_ratio(16);
      has_comp |= r > 0.55;
      has_comm |= r < 0.45;
    }
    mixed |= has_comp && has_comm;
  }
  EXPECT_TRUE(mixed);
}

TEST(IntegrationStack, RegrouperUsesSchedulerConsistently) {
  // A full arrival->finish cycle at the API level: schedule a pool, "finish"
  // a job, let the regrouper repair, and verify the repair references only
  // known jobs.
  const auto catalog = exp::make_catalog();
  std::vector<SchedJob> pool;
  for (std::size_t i = 0; i < 12; ++i) pool.push_back(catalog[i * 6].sched_job());

  const auto decision = core::schedule(pool, 48);
  ASSERT_FALSE(decision.empty());

  // Build the running view from the decision.
  std::vector<core::RunningGroup> groups;
  for (const auto& plan : decision.groups) {
    core::RunningGroup g;
    g.machines = plan.machines;
    for (auto id : plan.jobs)
      for (const auto& j : pool)
        if (j.id == id) g.jobs.push_back(j);
    groups.push_back(std::move(g));
  }
  // Idle pool: everything the decision left out.
  std::vector<SchedJob> idle;
  for (const auto& j : pool) {
    bool placed = false;
    for (const auto& g : groups)
      for (const auto& placed_job : g.jobs) placed |= placed_job.id == j.id;
    if (!placed) idle.push_back(j);
  }

  // Finish the first job of the first group.
  ASSERT_FALSE(groups[0].jobs.empty());
  const SchedJob finished = groups[0].jobs[0];
  groups[0].jobs.erase(groups[0].jobs.begin());
  const auto action = core::regroup_on_finish(finished, 0, idle, groups, 0);

  if (action.kind == core::RegroupAction::Kind::kReplace) {
    for (const auto& r : action.replacements) {
      const bool known = std::any_of(idle.begin(), idle.end(),
                                     [&](const SchedJob& j) { return j.id == r.id; });
      EXPECT_TRUE(known);
    }
  } else if (action.kind == core::RegroupAction::Kind::kReschedule) {
    EXPECT_FALSE(action.decision.empty());
    for (std::size_t idx : action.groups_involved) EXPECT_LT(idx, groups.size());
  }
}

TEST(IntegrationStack, SpillPredictionMatchesWorkloadAccounting) {
  // WorkloadSpec::resident_bytes and core::spill_costs must agree (both feed
  // memory decisions; drift between them caused real OOM bugs during
  // development).
  const auto catalog = exp::make_catalog();
  for (const auto& s : catalog) {
    for (double alpha : {0.0, 0.5, 1.0}) {
      const auto costs = core::spill_costs(s.input_bytes(), s.model_bytes(), alpha, 16,
                                           cluster::MachineSpec{});
      const double expected = s.resident_bytes(16, alpha) + core::kPerJobOverheadBytes;
      EXPECT_NEAR(costs.resident_bytes, expected, 1.0)
          << s.app << "/" << s.dataset << " alpha " << alpha;
    }
  }
}

}  // namespace
}  // namespace harmony
