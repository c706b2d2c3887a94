// Deep validators: every validator passes on healthy state, and every
// deliberately injected corruption is detected with a report that names the
// broken invariant (not just "something failed").
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/check.h"
#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"
#include "harmony/validate.h"
#include "sim/simulator.h"

namespace harmony {
namespace {

std::vector<exp::WorkloadSpec> small_workload(std::size_t n) {
  auto catalog = exp::make_catalog(2021);
  std::vector<exp::WorkloadSpec> out;
  const std::size_t stride = std::max<std::size_t>(1, catalog.size() / n);
  for (std::size_t i = 0; i < catalog.size() && out.size() < n; i += stride)
    out.push_back(catalog[i]);
  for (auto& s : out) s.iterations = std::min<std::size_t>(s.iterations, 12);
  return out;
}

// ---------------------------------------------------------------------------
// Scheduler decisions

core::SchedJob sched_job(core::JobId id) {
  core::SchedJob j;
  j.id = id;
  j.profile.cpu_work = 100.0;
  j.profile.t_net = 1.0;
  return j;
}

TEST(ValidateDecision, HealthyDecisionPasses) {
  std::vector<core::SchedJob> pool = {sched_job(0), sched_job(1), sched_job(2)};
  core::ScheduleDecision d;
  d.groups.push_back(core::GroupPlan{{0, 2}, 4});
  d.groups.push_back(core::GroupPlan{{1}, 2});
  d.jobs_scheduled = 3;
  check::Validation v("decision");
  core::validate_decision(d, pool, 8, v);
  EXPECT_TRUE(v.ok()) << v.report().to_string();
  EXPECT_GT(v.report().checks_run, 0u);
}

TEST(ValidateDecision, OverAllocatedBudgetDetected) {
  std::vector<core::SchedJob> pool = {sched_job(0), sched_job(1)};
  core::ScheduleDecision d;
  d.groups.push_back(core::GroupPlan{{0}, 5});
  d.groups.push_back(core::GroupPlan{{1}, 4});
  d.jobs_scheduled = 2;
  check::Validation v("decision");
  core::validate_decision(d, pool, 8, v);
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.report().mentions("budget")) << v.report().to_string();
}

TEST(ValidateDecision, DuplicatePlacementDetected) {
  std::vector<core::SchedJob> pool = {sched_job(0), sched_job(1)};
  core::ScheduleDecision d;
  d.groups.push_back(core::GroupPlan{{0, 1}, 2});
  d.groups.push_back(core::GroupPlan{{1}, 2});
  d.jobs_scheduled = 3;
  check::Validation v("decision");
  core::validate_decision(d, pool, 8, v);
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.report().mentions("more than one group")) << v.report().to_string();
}

TEST(ValidateDecision, ForeignJobAndZeroMachinesDetected) {
  std::vector<core::SchedJob> pool = {sched_job(0)};
  core::ScheduleDecision d;
  d.groups.push_back(core::GroupPlan{{7}, 0});
  d.jobs_scheduled = 1;
  check::Validation v("decision");
  core::validate_decision(d, pool, 8, v);
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.report().mentions("zero machines"));
  EXPECT_TRUE(v.report().mentions("not in the scheduling pool"));
  // Failures accumulate: one broken plan does not mask the other checks.
  EXPECT_GE(v.report().failures.size(), 2u);
}

TEST(ValidateDecision, WrongJobsScheduledCountDetected) {
  std::vector<core::SchedJob> pool = {sched_job(0), sched_job(1)};
  core::ScheduleDecision d;
  d.groups.push_back(core::GroupPlan{{0}, 2});
  d.jobs_scheduled = 2;  // claims two, placed one
  check::Validation v("decision");
  core::validate_decision(d, pool, 8, v);
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.report().mentions("jobs_scheduled")) << v.report().to_string();
}

// ---------------------------------------------------------------------------
// Simulator event heap

TEST(ValidateSimulator, HealthyHeapPasses) {
  sim::Simulator s;
  for (int i = 0; i < 20; ++i) s.schedule_at(20.0 - i, [] {});
  s.run(5);
  check::Validation v("sim");
  s.validate(v);
  EXPECT_TRUE(v.ok()) << v.report().to_string();
}

TEST(ValidateSimulator, ClockAheadOfPendingEventsDetected) {
  sim::Simulator s;
  s.schedule_at(10.0, [] {});
  s.corrupt_clock_for_test(50.0);  // pending event is now in the past
  check::Validation v("sim");
  s.validate(v);
  EXPECT_FALSE(v.ok());
}

// Structural corruption of the event heap itself: the validator must catch a
// broken heap property and a doubly queued event.
TEST(SimulatorQueueCorruption, MisorderedNodeDetected) {
  sim::Simulator s;
  for (int i = 0; i < 64; ++i) s.schedule_at(1.0 + i, [] {});
  s.schedule_at(1e9, [] {});
  s.run(8);
  {
    check::Validation clean("sim");
    s.validate(clean);
    ASSERT_TRUE(clean.ok()) << clean.report().to_string();
  }
  s.corrupt_queue_order_for_test();
  check::Validation v("sim");
  s.validate(v);
  const auto report = v.report();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.mentions("heap property")) << report.to_string();
}

TEST(SimulatorQueueCorruption, DuplicateNodeDetected) {
  sim::Simulator s;
  for (int i = 0; i < 32; ++i) s.schedule_at(1.0 + i, [] {});
  s.corrupt_queue_duplicate_for_test();
  check::Validation v("sim");
  s.validate(v);
  const auto report = v.report();
  ASSERT_FALSE(report.ok());
  // Both the per-slot recount and the slot/queue live-count cross-check
  // must name the double-queued event.
  EXPECT_TRUE(report.mentions("expected exactly 1")) << report.to_string();
  EXPECT_TRUE(report.mentions("the queue holds nodes for")) << report.to_string();
}

// ---------------------------------------------------------------------------
// ClusterSim deep state validation

TEST(ClusterSimValidate, HealthyRunIsCleanAtEveryRegroupEvent) {
  exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
  config.machines = 24;
  config.validate = true;
  auto workload = small_workload(12);
  exp::ClusterSim sim(config, workload, exp::batch_arrivals(workload.size()));
  const auto summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), 12u);
  EXPECT_GT(sim.validations_run(), 0u);
  // Quiescent end state also validates clean.
  EXPECT_TRUE(sim.validate_state().ok()) << sim.validate_state().to_string();
}

struct CorruptionCase {
  exp::ClusterSim::Corruption kind;
  const char* needle;  // the report must name the broken invariant
};

class ClusterSimCorruption : public ::testing::TestWithParam<CorruptionCase> {};

TEST_P(ClusterSimCorruption, InjectedCorruptionTripsItsValidator) {
  exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
  config.machines = 24;
  config.validate = true;
  auto workload = small_workload(12);
  exp::ClusterSim sim(config, workload, exp::batch_arrivals(workload.size()));
  // Mid-run: groups exist, spill ratios are live, indexes are busy.
  sim.schedule_corruption_for_test(3000.0, GetParam().kind);
  try {
    sim.run();
    FAIL() << "corrupted state escaped validation";
  } catch (const check::CheckError& e) {
    EXPECT_EQ(e.report().validator, "cluster_sim");
    // The corrupted state is still in place: the full report must name the
    // broken invariant (the throw only carries the first failure).
    const auto report = sim.validate_state();
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions(GetParam().needle)) << report.to_string();
  }
}

// gtest names each case by dumping the parameter's bytes, padding included.
// Built as temporaries (::testing::Values), the first case's padding held
// stale stack bytes -- half of an ASLR-randomised address -- so its name
// changed from build to build. A static table's padding is zero-initialised
// and ValuesIn copies the table bytewise, so the kind and padding bytes that
// lead each name are fixed.
const CorruptionCase kCorruptionCases[] = {
    {exp::ClusterSim::Corruption::kBadIndexEntry, "index"},
    {exp::ClusterSim::Corruption::kOverAllocatedMachine,
     "machine conservation"},
    {exp::ClusterSim::Corruption::kSkewedSpillAlpha, "disk ratio out of range"},
    {exp::ClusterSim::Corruption::kBrokenMembership, "bidirectional"},
};

INSTANTIATE_TEST_SUITE_P(AllKinds, ClusterSimCorruption,
                         ::testing::ValuesIn(kCorruptionCases));

// The idle view caches each idle job's scheduler profile; an entry that
// misses a refresh is reported against that job, not as a generic mismatch.
TEST(ClusterSimValidate, StaleIdleProfileNamesTheJob) {
  exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
  config.machines = 24;
  config.validate = true;
  auto workload = small_workload(40);
  exp::ClusterSim sim(config, workload, exp::batch_arrivals(workload.size()));
  // By then the bootstrap groups have drained into the initial schedule,
  // which left a backlog of paused jobs.
  sim.schedule_corruption_for_test(20000.0, exp::ClusterSim::Corruption::kStaleIdleProfile);
  try {
    sim.run();
    FAIL() << "stale idle profile escaped validation";
  } catch (const check::CheckError& e) {
    const auto report = sim.validate_state();
    ASSERT_EQ(report.failures.size(), 1u) << report.to_string();
    const check::FailureReport& failure = report.failures.front();
    EXPECT_TRUE(report.mentions("stale entry")) << report.to_string();
    ASSERT_NE(failure.job, check::kNoEntity) << report.to_string();
    EXPECT_EQ(e.report().job, failure.job);
    EXPECT_NE(failure.to_string().find("job " + std::to_string(failure.job)),
              std::string::npos)
        << failure.to_string();
  }
}

// Each group memoizes its occupancy and spilling-member count; a memo that
// misses an invalidation is reported against that group.
TEST(ClusterSimValidate, StaleOccupancyMemoNamesTheGroup) {
  exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
  config.machines = 24;
  config.validate = true;
  auto workload = small_workload(12);
  exp::ClusterSim sim(config, workload, exp::batch_arrivals(workload.size()));
  sim.schedule_corruption_for_test(3000.0, exp::ClusterSim::Corruption::kStaleOccupancyMemo);
  try {
    sim.run();
    FAIL() << "stale occupancy memo escaped validation";
  } catch (const check::CheckError& e) {
    const auto report = sim.validate_state();
    ASSERT_EQ(report.failures.size(), 1u) << report.to_string();
    const check::FailureReport& failure = report.failures.front();
    EXPECT_TRUE(report.mentions("stale occupancy memo")) << report.to_string();
    ASSERT_NE(failure.group, check::kNoEntity) << report.to_string();
    EXPECT_EQ(e.report().group, failure.group);
    EXPECT_NE(failure.to_string().find("group " + std::to_string(failure.group)),
              std::string::npos)
        << failure.to_string();
  }
}

TEST(ClusterSimValidate, PostRunCorruptionCaughtByDirectCall) {
  exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
  config.machines = 24;
  auto workload = small_workload(8);
  exp::ClusterSim sim(config, workload, exp::batch_arrivals(workload.size()));
  sim.run();
  ASSERT_TRUE(sim.validate_state().ok());
  sim.corrupt_for_test(exp::ClusterSim::Corruption::kBadIndexEntry);
  const auto report = sim.validate_state();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.mentions("bad index entry")) << report.to_string();
}

// A parked job (paused or waiting out a regroup) has α = 0, so its model-spill
// flag must be cleared too. Table I tiled to 400 jobs on 40 machines under
// 2 s Poisson arrivals parks model-spilled jobs (the first is job 366).
TEST(ClusterSimValidate, ParkedJobClearsModelSpill) {
  exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
  config.machines = 40;
  config.validate = true;
  auto workload = exp::make_catalog();
  for (std::size_t i = 0; workload.size() < 400; ++i) workload.push_back(workload[i % 80]);
  exp::ClusterSim sim(config, workload,
                      exp::poisson_arrivals(workload.size(), 2.0, config.seed));
  const auto summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), 400u);
  EXPECT_GT(sim.validations_run(), 0u);
}

// Every arrival generator emits sorted times, so submit order normally equals
// id order. Reversed arrivals with a block of equal timestamps make the two
// differ (and exercise the id tie-break), so the submit-ordered waiting and
// idle indexes are checked against a sorted rebuild at every regroup.
TEST(ClusterSimValidate, SubmitOrderUnlikeIdOrderStaysClean) {
  exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
  config.machines = 24;
  config.validate = true;
  auto workload = small_workload(40);
  auto arrivals = exp::poisson_arrivals(workload.size(), 120.0, 5);
  std::reverse(arrivals.begin(), arrivals.end());
  const double tie = arrivals[15];
  std::fill(arrivals.begin() + 10, arrivals.begin() + 20, tie);
  exp::ClusterSim sim(config, workload, arrivals);
  const auto summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), workload.size());
  EXPECT_GT(sim.validations_run(), 0u);
  EXPECT_TRUE(sim.validate_state().ok()) << sim.validate_state().to_string();
}

TEST(ClusterSimValidate, ValidationOffRunsNoPasses) {
  exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
  config.machines = 24;
  auto workload = small_workload(8);
  exp::ClusterSim sim(config, workload, exp::batch_arrivals(workload.size()));
  sim.run();
  EXPECT_EQ(sim.validations_run(), 0u);
}

}  // namespace
}  // namespace harmony
