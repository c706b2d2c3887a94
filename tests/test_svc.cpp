// Online service mode (src/svc) and its incremental rescheduler
// (harmony/incremental): admission-queue policies, bounded join/leave repair
// with machine conservation, the drift trigger, incremental-vs-full
// equivalence within the documented bound, bit-identical seeded service runs,
// and corruption detection by the deep validators.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/rng.h"
#include "exp/workload.h"
#include "harmony/incremental.h"
#include "harmony/scheduler.h"
#include "harmony/validate.h"
#include "obs/metrics.h"
#include "svc/admission.h"
#include "svc/service.h"

namespace harmony {
namespace {

// ---------------------------------------------------------------------------
// AdmissionQueue

svc::PendingJob pending(core::JobId id, double expected_jct, std::uint64_t seq) {
  svc::PendingJob p;
  p.job.id = id;
  p.job.profile.cpu_work = 100.0;
  p.job.profile.t_net = 1.0;
  p.expected_jct = expected_jct;
  p.seq = seq;
  return p;
}

TEST(AdmissionQueue, FifoPollsInArrivalOrder) {
  svc::AdmissionQueue q(svc::AdmissionPolicy::kFifo, 8);
  ASSERT_TRUE(q.offer(pending(10, 50.0, 0)));
  ASSERT_TRUE(q.offer(pending(11, 5.0, 1)));
  ASSERT_TRUE(q.offer(pending(12, 500.0, 2)));
  EXPECT_EQ(q.poll()->job.id, 10u);
  EXPECT_EQ(q.poll()->job.id, 11u);
  EXPECT_EQ(q.poll()->job.id, 12u);
  EXPECT_FALSE(q.poll().has_value());
}

TEST(AdmissionQueue, ShortestJctPollsBySmallestEstimate) {
  svc::AdmissionQueue q(svc::AdmissionPolicy::kShortestJct, 8);
  ASSERT_TRUE(q.offer(pending(10, 50.0, 0)));
  ASSERT_TRUE(q.offer(pending(11, 5.0, 1)));
  ASSERT_TRUE(q.offer(pending(12, 500.0, 2)));
  ASSERT_TRUE(q.offer(pending(13, 5.0, 3)));  // tie with 11; seq breaks it
  EXPECT_EQ(q.poll()->job.id, 11u);
  EXPECT_EQ(q.poll()->job.id, 13u);
  EXPECT_EQ(q.poll()->job.id, 10u);
  EXPECT_EQ(q.poll()->job.id, 12u);
}

TEST(AdmissionQueue, CapacityShedsAndCounts) {
  svc::AdmissionQueue q(svc::AdmissionPolicy::kFifo, 2);
  EXPECT_TRUE(q.offer(pending(1, 1.0, 0)));
  EXPECT_TRUE(q.offer(pending(2, 1.0, 1)));
  EXPECT_FALSE(q.offer(pending(3, 1.0, 2)));  // shed
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.offered(), 3u);
  EXPECT_EQ(q.rejected(), 1u);
}

TEST(AdmissionQueue, RestoreReturnsToHeadWithoutAccounting) {
  svc::AdmissionQueue q(svc::AdmissionPolicy::kFifo, 4);
  ASSERT_TRUE(q.offer(pending(1, 1.0, 0)));
  ASSERT_TRUE(q.offer(pending(2, 1.0, 1)));
  auto head = q.poll();
  ASSERT_TRUE(head.has_value());
  q.restore(std::move(*head));
  EXPECT_EQ(q.offered(), 2u);
  EXPECT_EQ(q.rejected(), 0u);
  EXPECT_EQ(q.poll()->job.id, 1u);  // back at the head, not the tail
}

TEST(AdmissionPolicy, ParseAndName) {
  EXPECT_EQ(svc::parse_admission_policy("fifo"), svc::AdmissionPolicy::kFifo);
  EXPECT_EQ(svc::parse_admission_policy("sjf"), svc::AdmissionPolicy::kShortestJct);
  EXPECT_EQ(svc::parse_admission_policy("shortest-jct"),
            svc::AdmissionPolicy::kShortestJct);
  EXPECT_FALSE(svc::parse_admission_policy("lifo").has_value());
  EXPECT_STREQ(svc::to_string(svc::AdmissionPolicy::kFifo), "fifo");
  EXPECT_STREQ(svc::to_string(svc::AdmissionPolicy::kShortestJct), "sjf");
}

// ---------------------------------------------------------------------------
// IncrementalScheduler

core::SchedJob job(core::JobId id, double cpu_work, double t_net) {
  core::SchedJob j;
  j.id = id;
  j.profile.cpu_work = cpu_work;
  j.profile.t_net = t_net;
  return j;
}

// The service's default drift threshold.
constexpr double kDriftThreshold = 0.10;

void expect_valid(const core::IncrementalScheduler& inc) {
  check::Validation v("incremental");
  inc.validate(v);
  EXPECT_TRUE(v.ok()) << v.report().to_string();
}

TEST(IncrementalScheduler, JoinPlacesAndConservesMachines) {
  core::IncrementalScheduler inc(kDriftThreshold, 100);
  std::size_t placed = 0;
  for (core::JobId id = 0; id < 20; ++id) {
    const auto r = inc.join(job(id, 200.0 + 10.0 * id, 8.0));
    if (r.has_value()) {
      ++placed;
      EXPECT_GT(r->group_t_itr, 0.0);
    }
  }
  EXPECT_GT(placed, 0u);
  EXPECT_EQ(inc.running_jobs(), placed);
  std::size_t allocated = 0;
  for (const auto& g : inc.groups())
    if (g.live) allocated += g.machines;
  EXPECT_EQ(allocated + inc.free_machines(), inc.total_machines());
  expect_valid(inc);
}

TEST(IncrementalScheduler, LeaveDissolvesEmptyGroupAndFreesMachines) {
  core::IncrementalScheduler inc(kDriftThreshold, 50);
  ASSERT_TRUE(inc.join(job(1, 300.0, 10.0)).has_value());
  EXPECT_TRUE(inc.contains(1));
  EXPECT_LT(inc.free_machines(), 50u);
  EXPECT_TRUE(inc.leave(1));
  EXPECT_FALSE(inc.contains(1));
  EXPECT_EQ(inc.free_machines(), 50u);
  EXPECT_EQ(inc.live_group_count(), 0u);
  EXPECT_FALSE(inc.leave(1));  // not placed anymore
  expect_valid(inc);
}

TEST(IncrementalScheduler, JoinRejectsDuplicateAndPoolIsIdSorted) {
  core::IncrementalScheduler inc(kDriftThreshold, 40);
  ASSERT_TRUE(inc.join(job(5, 200.0, 8.0)).has_value());
  ASSERT_TRUE(inc.join(job(2, 260.0, 9.0)).has_value());
  EXPECT_THROW(inc.join(job(5, 200.0, 8.0)), check::CheckError);
  const auto pool = inc.pool();
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].id, 2u);
  EXPECT_EQ(pool[1].id, 5u);
}

TEST(IncrementalScheduler, QualityGateDeclinesScoreCrashingJoin) {
  // Fill a small cluster with well-matched jobs, then offer one whose solo
  // group would crater the modelled score: the gate queues it (nullopt)
  // rather than letting admission ratchet past what full Algorithm 1 would
  // co-schedule.
  core::IncrementalScheduler inc(kDriftThreshold, 24);
  for (core::JobId id = 0; id < 12; ++id)
    ASSERT_TRUE(inc.join(job(id, 160.0, 8.0)).has_value());
  const double before = inc.current_score();
  core::JobId extra = 100;
  core::SchedJob awkward = job(extra, 4000.0, 0.05);  // wants ~all machines
  std::optional<core::IncrementalScheduler::JoinResult> r;
  while ((r = inc.join(awkward)).has_value()) {
    // Keep stuffing copies until the gate trips; bounded by the member caps.
    awkward = job(++extra, 4000.0, 0.05);
    ASSERT_LT(extra, 200u);
  }
  EXPECT_FALSE(r.has_value());
  EXPECT_GE(inc.current_score(),
            before * (1.0 - kDriftThreshold) - 1e-9);
  expect_valid(inc);
}

TEST(IncrementalScheduler, DriftRisesOnDecayAndResetsOnAdopt) {
  core::IncrementalScheduler inc(kDriftThreshold, 80);
  for (core::JobId id = 0; id < 16; ++id) inc.join(job(id, 220.0, 10.0));
  EXPECT_GE(inc.drift(), 0.0);

  // Churn decays the grouping; drift must eventually cross the
  // threshold (the escalation trigger the service relies on).
  core::JobId next = 100;
  for (int round = 0; round < 200 && !inc.needs_full_reschedule(); ++round) {
    for (core::JobId id = 0; id < 100; ++id)
      if (inc.contains(id)) {
        inc.leave(id);
        break;
      }
    inc.join(job(next++, 1500.0, 2.0));
  }
  EXPECT_TRUE(inc.needs_full_reschedule());

  // A full Algorithm-1 repack adopted back in resets the baseline.
  const auto pool = inc.pool();
  inc.adopt(core::repack(pool, inc.total_machines()), pool);
  EXPECT_LT(inc.drift(), kDriftThreshold);
  EXPECT_EQ(inc.running_jobs(), pool.size());
  expect_valid(inc);
}

TEST(IncrementalScheduler, NegativePeakScoreGatesAndDriftsTheRightWayRound) {
  // Overload: 100 full 6-job groups, each on twice its balance-point DoP, so
  // the per-job penalty (5 extra jobs per group) outweighs utilization and
  // the adopted peak score is negative.
  constexpr std::size_t kGroups = 100;
  constexpr std::size_t kGroupMachines = 20;
  core::IncrementalScheduler inc(kDriftThreshold, kGroups * kGroupMachines + 100);
  std::vector<core::SchedJob> pool;
  core::ScheduleDecision decision;
  for (std::size_t g = 0; g < kGroups; ++g) {
    core::GroupPlan plan;
    plan.machines = kGroupMachines;
    for (std::size_t k = 0; k < core::kMaxJobsPerGroup; ++k) {
      const auto id = static_cast<core::JobId>(pool.size());
      pool.push_back(job(id, 10.0, 1.0));
      plan.jobs.push_back(id);
    }
    decision.groups.push_back(plan);
  }
  inc.adopt(decision, pool);
  const double peak = inc.current_score();
  ASSERT_LT(peak, 0.0);
  EXPECT_EQ(inc.drift(), 0.0);

  // A compute-only newcomer opens a group on the free pool at full CPU
  // utilization: the score rises, yet stays below 0.9 x peak. It beats the
  // peak, so it must be admitted.
  ASSERT_TRUE(inc.join(job(10000, 10.0, 0.0)).has_value());
  const double raised = inc.current_score();
  EXPECT_GT(raised, peak);
  EXPECT_LT(raised, peak * (1.0 - kDriftThreshold));
  EXPECT_EQ(inc.drift(), 0.0);

  // Its departure returns the machines and drops the score below the new
  // peak: drift() must read that drop relative to |peak|.
  ASSERT_TRUE(inc.leave(10000));
  const double dropped = inc.current_score();
  EXPECT_LT(dropped, raised);
  EXPECT_GT(inc.drift(), 0.0);
  EXPECT_DOUBLE_EQ(inc.drift(), (raised - dropped) / -raised);
  expect_valid(inc);
}

TEST(IncrementalScheduler, EquivalenceWithFullRepackWithinSlack) {
  // Golden equivalence bound: after a stream of bounded-work joins/leaves,
  // the incremental grouping scores within the documented slack of a fresh
  // full-algorithm repack of the same jobs (see validate_incremental_vs_full;
  // the service pairs drift_threshold 0.10 with slack 0.35).
  core::IncrementalScheduler inc(kDriftThreshold, 120);
  Rng rng(17);
  core::JobId next = 0;
  for (int step = 0; step < 400; ++step) {
    if (inc.needs_full_reschedule()) {
      // What the service's escalation does: full repack, adopt, baseline.
      const auto pool = inc.pool();
      inc.adopt(core::repack(pool, inc.total_machines()), pool);
    }
    if (rng.bernoulli(0.6) || inc.running_jobs() == 0) {
      inc.join(job(next++, rng.uniform(150.0, 450.0), rng.uniform(4.0, 12.0)));
    } else {
      const auto pool = inc.pool();
      inc.leave(
          pool[static_cast<std::size_t>(
                   rng.uniform(0.0, static_cast<double>(pool.size()))) %
               pool.size()]
              .id);
    }
  }
  ASSERT_GT(inc.running_jobs(), 0u);
  check::Validation v("equivalence");
  core::validate_incremental_vs_full(inc, 0.35, v);
  EXPECT_TRUE(v.ok()) << v.report().to_string();
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Slot-by-slot equality of two schedulers' observable state, every double
// compared bit for bit.
void expect_same_state(const core::IncrementalScheduler& a,
                       const core::IncrementalScheduler& b,
                       std::span<const core::SchedJob> ids, const std::string& where) {
  ASSERT_EQ(a.groups().size(), b.groups().size()) << where;
  for (std::size_t i = 0; i < a.groups().size(); ++i) {
    const auto& ga = a.groups()[i];
    const auto& gb = b.groups()[i];
    ASSERT_EQ(ga.jobs.size(), gb.jobs.size()) << where << " slot " << i;
    for (std::size_t k = 0; k < ga.jobs.size(); ++k) {
      EXPECT_EQ(ga.jobs[k].id, gb.jobs[k].id) << where << " slot " << i;
      EXPECT_EQ(bits(ga.jobs[k].profile.cpu_work), bits(gb.jobs[k].profile.cpu_work));
      EXPECT_EQ(bits(ga.jobs[k].profile.t_net), bits(gb.jobs[k].profile.t_net));
    }
    EXPECT_EQ(ga.machines, gb.machines) << where << " slot " << i;
    EXPECT_EQ(ga.live, gb.live) << where << " slot " << i;
    EXPECT_EQ(bits(ga.sum_cpu_work), bits(gb.sum_cpu_work)) << where << " slot " << i;
    EXPECT_EQ(bits(ga.sum_t_net), bits(gb.sum_t_net)) << where << " slot " << i;
    EXPECT_EQ(bits(ga.max_t_itr), bits(gb.max_t_itr)) << where << " slot " << i;
    EXPECT_EQ(bits(ga.cpu_contrib), bits(gb.cpu_contrib)) << where << " slot " << i;
    EXPECT_EQ(bits(ga.net_contrib), bits(gb.net_contrib)) << where << " slot " << i;
  }
  EXPECT_EQ(a.free_machines(), b.free_machines()) << where;
  EXPECT_EQ(a.running_jobs(), b.running_jobs()) << where;
  EXPECT_EQ(a.live_group_count(), b.live_group_count()) << where;
  EXPECT_EQ(bits(a.current_score()), bits(b.current_score())) << where;
  EXPECT_EQ(bits(a.drift()), bits(b.drift())) << where;
  for (const core::SchedJob& j : ids)
    EXPECT_EQ(a.contains(j.id), b.contains(j.id)) << where << " job " << j.id;
}

// One seeded join or leave, drawn from the scheduler's own state so two
// equal states draw the same operation.
struct ChurnOutcome {
  bool joined = false;
  std::optional<core::IncrementalScheduler::JoinResult> join;
  bool left = false;
};

ChurnOutcome churn_step(core::IncrementalScheduler& inc, Rng& rng, core::JobId& next,
                        double join_probability) {
  ChurnOutcome out;
  if (rng.bernoulli(join_probability) || inc.running_jobs() == 0) {
    out.joined = true;
    out.join = inc.join(job(next++, rng.uniform(150.0, 450.0), rng.uniform(4.0, 12.0)));
  } else {
    const auto pool = inc.pool();
    const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1);
    out.left = inc.leave(pool[static_cast<std::size_t>(pick)].id);
  }
  return out;
}

TEST(IncrementalScheduler, AdoptIsHistoryFree) {
  // adopt() reuses the previous grouping's slots, member storage and index
  // entries; what it builds must still depend on the (decision, pool) alone. A scheduler with
  // a history of joins, leaves and adopts is compared, at every adopt, with
  // a freshly built one that adopts the same decision, and then both take the
  // same 50 seeded joins and leaves. The whole sequence stays under the 4096
  // mutations after which the scheduler re-sums its accumulators, a count a
  // fresh scheduler restarts.
  constexpr std::size_t kMachines = 1000;
  core::IncrementalScheduler inc(kDriftThreshold, kMachines);
  Rng rng(41);
  core::JobId next = 0;
  std::size_t shrinks = 0;
  std::size_t grows = 0;
  std::size_t drops = 0;
  for (int round = 0; round < 24; ++round) {
    // Join-heavy rounds grow the pool, every third round shrinks it.
    const double join_probability = round % 3 == 2 ? 0.35 : 0.75;
    for (int step = 0; step < 60; ++step) churn_step(inc, rng, next, join_probability);

    const auto pool = inc.pool();
    // A full repack places every job; Algorithm 1 proper may place a prefix
    // and drop the rest.
    const core::ScheduleDecision decision = round % 2 == 0
                                                ? core::repack(pool, kMachines)
                                                : core::schedule(pool, kMachines);
    const std::size_t slots_before = inc.groups().size();
    inc.adopt(decision, pool);
    core::IncrementalScheduler fresh(kDriftThreshold, kMachines);
    fresh.adopt(decision, pool);
    const std::string where = "round " + std::to_string(round);
    expect_same_state(inc, fresh, pool, where);
    if (inc.groups().size() < slots_before) ++shrinks;
    if (inc.groups().size() > slots_before) ++grows;
    if (inc.running_jobs() < pool.size()) ++drops;
    for (const core::SchedJob& j : pool) {
      const bool planned = std::any_of(
          decision.groups.begin(), decision.groups.end(), [&](const core::GroupPlan& g) {
            return std::find(g.jobs.begin(), g.jobs.end(), j.id) != g.jobs.end();
          });
      EXPECT_EQ(inc.contains(j.id), planned) << where << " job " << j.id;
    }

    core::IncrementalScheduler reused = inc;
    Rng rng_reused(1000 + static_cast<std::uint64_t>(round));
    Rng rng_fresh(1000 + static_cast<std::uint64_t>(round));
    core::JobId next_reused = next;
    core::JobId next_fresh = next;
    for (int step = 0; step < 50; ++step) {
      const ChurnOutcome a = churn_step(reused, rng_reused, next_reused, 0.5);
      const ChurnOutcome b = churn_step(fresh, rng_fresh, next_fresh, 0.5);
      ASSERT_EQ(a.joined, b.joined) << where << " step " << step;
      EXPECT_EQ(a.left, b.left) << where << " step " << step;
      ASSERT_EQ(a.join.has_value(), b.join.has_value()) << where << " step " << step;
      if (a.join) {
        EXPECT_EQ(a.join->group, b.join->group) << where << " step " << step;
        EXPECT_EQ(a.join->created_group, b.join->created_group) << where << " step " << step;
        EXPECT_EQ(bits(a.join->group_t_itr), bits(b.join->group_t_itr))
            << where << " step " << step;
      }
    }
    expect_same_state(reused, fresh, reused.pool(), where + " after 50 steps");
  }
  EXPECT_GT(shrinks, 0u);
  EXPECT_GT(grows, 0u);
  EXPECT_GT(drops, 0u);
}

// A new group opens at the job's balance point, cpu_work / t_net rounded
// half away from zero as std::llround rounds it, then clamped to [1, free
// machines]. t_net = 1 makes the ratio exactly cpu_work, so the exact halves,
// the doubles next to them, the range where every double is an integer and
// a ratio past 2^62 (which takes the library call) are all reachable.
TEST(IncrementalScheduler, BalancePointRoundsLikeLlround) {
  constexpr std::size_t kMachines = std::size_t{1} << 62;
  std::vector<double> ratios = {0.25,
                                0.5,
                                std::nextafter(0.5, 0.0),
                                1.5,
                                2.5,
                                std::nextafter(2.5, 0.0),
                                std::nextafter(2.5, 3.0),
                                12.0,
                                0x1p52 - 0.5,
                                0x1p52,
                                0x1p52 + 1.0,
                                0x1p53 + 2.0,
                                0x1p61 + 0x1p10,
                                0x1p62 + 0x1p40};
  Rng rng(5);
  for (int i = 0; i < 200; ++i) ratios.push_back(rng.uniform(0.0, 5000.0));
  for (int i = 0; i < 200; ++i)
    ratios.push_back(static_cast<double>(rng.uniform_int(0, 1 << 20)) + 0.5);
  for (const double ratio : ratios) {
    core::IncrementalScheduler inc(kDriftThreshold, kMachines);
    const auto placed = inc.join(job(0, ratio, 1.0));
    ASSERT_TRUE(placed.has_value()) << ratio;
    ASSERT_TRUE(placed->created_group) << ratio;
    const auto want = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(ratio)), 1, kMachines);
    EXPECT_EQ(inc.groups()[placed->group].machines, want) << std::hexfloat << ratio;
  }
}

TEST(IncrementalScheduler, AdoptRejectsMissingJobsAndUnorderedPools) {
  const std::vector<core::SchedJob> pool = {job(1, 200.0, 8.0), job(3, 260.0, 9.0),
                                            job(5, 300.0, 10.0)};
  const core::ScheduleDecision decision = core::repack(pool, 40);
  {
    core::IncrementalScheduler inc(kDriftThreshold, 40);
    EXPECT_NO_THROW(inc.adopt(decision, pool));
    EXPECT_EQ(inc.running_jobs(), 3u);
  }
  // Planned ids absent from the pool: one inside its id range, one past it.
  for (const std::size_t missing : {1u, 2u}) {
    std::vector<core::SchedJob> partial = pool;
    partial.erase(partial.begin() + static_cast<std::ptrdiff_t>(missing));
    core::IncrementalScheduler inc(kDriftThreshold, 40);
    EXPECT_THROW(inc.adopt(decision, partial), check::CheckError) << "missing job "
                                                                  << pool[missing].id;
  }
  // The pool out of id order, and with a duplicated id.
  {
    const std::vector<core::SchedJob> unordered = {pool[1], pool[0], pool[2]};
    core::IncrementalScheduler inc(kDriftThreshold, 40);
    EXPECT_THROW(inc.adopt(decision, unordered), check::CheckError);
  }
  {
    const std::vector<core::SchedJob> duplicated = {pool[0], pool[1], pool[1], pool[2]};
    core::IncrementalScheduler inc(kDriftThreshold, 40);
    EXPECT_THROW(inc.adopt(decision, duplicated), check::CheckError);
  }
}

TEST(IncrementalScheduler, CorruptionInjectionIsDetected) {
  using Corruption = core::IncrementalScheduler::Corruption;
  for (const Corruption kind :
       {Corruption::kLostMachine, Corruption::kDuplicateJob,
        Corruption::kSkewedAggregate}) {
    core::IncrementalScheduler inc(kDriftThreshold, 60);
    for (core::JobId id = 0; id < 8; ++id) inc.join(job(id, 200.0, 8.0));
    expect_valid(inc);
    inc.corrupt_for_test(kind);
    check::Validation v("incremental");
    inc.validate(v);
    EXPECT_FALSE(v.ok()) << "corruption kind " << static_cast<int>(kind)
                         << " went undetected";
  }
}

// ---------------------------------------------------------------------------
// Service

svc::ServiceConfig small_service_config() {
  svc::ServiceConfig config;
  config.machines = 120;
  config.duration_sec = 4000.0;
  config.arrival_kind = "poisson";
  config.mean_interarrival_sec = 20.0;
  config.queue_capacity = 64;
  config.seed = 9;
  return config;
}

TEST(Service, SeededRunsAreBitIdentical) {
  const auto catalog = exp::make_catalog();
  svc::Service a(small_service_config(), catalog);
  svc::Service b(small_service_config(), catalog);
  const auto sa = a.run();
  const auto sb = b.run();
  EXPECT_EQ(sa.report(), sb.report());
  EXPECT_EQ(sa.arrivals, sb.arrivals);
  EXPECT_EQ(sa.scheduling_events, sb.scheduling_events);
  EXPECT_EQ(sa.jct_p99, sb.jct_p99);
}

TEST(Service, ValidatorsOnDoNotPerturbTheRun) {
  const auto catalog = exp::make_catalog();
  auto validated_config = small_service_config();
  validated_config.validate_every_events = 32;
  svc::Service plain(small_service_config(), catalog);
  svc::Service validated(validated_config, catalog);
  const auto sp = plain.run();
  const auto sv = validated.run();
  EXPECT_EQ(sp.report(), sv.report());  // byte-identical deterministic surface
  EXPECT_GT(sv.validations_run, 0u);
}

TEST(Service, AccountingIsConsistent) {
  svc::Service service(small_service_config(), exp::make_catalog());
  const auto s = service.run();
  EXPECT_GT(s.arrivals, 0u);
  EXPECT_EQ(s.arrivals, s.admitted + s.rejected);
  EXPECT_EQ(s.admitted, s.completed + s.running_at_end + s.queued_at_end);
  EXPECT_EQ(s.scheduling_events, s.incremental_joins + s.incremental_leaves +
                                     s.rejected + s.full_reschedules);
  EXPECT_GT(s.completed, 0u);
  EXPECT_GT(s.jct_p99, 0.0);
  EXPECT_GE(s.jct_p99, s.jct_p50);
}

TEST(Service, DriftThresholdAboveDefaultSlackValidatesClean) {
  // The equivalence validator's slack is derived from the drift threshold, so
  // a threshold above the default slack (0.35) still builds and validates
  // clean.
  auto config = small_service_config();
  config.drift_threshold = 0.5;
  config.validate_every_events = 64;
  svc::Service service(config, exp::make_catalog());
  svc::ServiceSummary s;
  EXPECT_NO_THROW(s = service.run());
  EXPECT_GT(s.validations_run, 0u);
}

TEST(Service, RejectsClosedLoopBatchArrivals) {
  auto config = small_service_config();
  config.arrival_kind = "batch";
  EXPECT_THROW(svc::Service(config, exp::make_catalog()), check::CheckError);
}

// svc.decision_latency_us resolves the latencies it records: its p99 lands
// in the exact p99's bin or a neighbouring one. The check needs the exact
// p99 inside the histogram's range, which a sanitizer build can exceed.
TEST(Service, DecisionLatencyHistogramResolvesItsP99) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  svc::ServiceConfig config;
  config.machines = 10000;
  config.duration_sec = 1e6;
  config.mean_interarrival_sec = 50.0;
  config.seed = 1;
  svc::Service service(config, exp::make_catalog());
  const svc::ServiceSummary s = service.run();

  const obs::HistogramMetric* latency = nullptr;
  for (const auto& [name, h] : registry.histogram_series())
    if (name == "svc.decision_latency_us") latency = h;
  ASSERT_NE(latency, nullptr);
  const auto state = latency->state();
  ASSERT_EQ(state.count, s.incremental_joins + s.incremental_leaves);
  ASSERT_GT(state.count, 10000u);
  if (s.decision_latency_p99_us >= state.hi)
    GTEST_SKIP() << "exact p99 " << s.decision_latency_p99_us << " us is past the range";
  const double width = (state.hi - state.lo) / static_cast<double>(state.bins.size());
  const auto bin_of = [&](double x) {
    return static_cast<long>(std::floor((x - state.lo) / width));
  };
  const double p99 = latency->percentile(0.99);
  EXPECT_LE(std::abs(bin_of(p99) - bin_of(s.decision_latency_p99_us)), 1)
      << "histogram p99 " << p99 << " us vs exact " << s.decision_latency_p99_us << " us";
}

TEST(Service, StateValidatesCleanAfterRunAndCorruptionIsDetected) {
  svc::Service service(small_service_config(), exp::make_catalog());
  service.run();
  EXPECT_TRUE(service.validate_state().ok());
  service.corrupt_for_test(core::IncrementalScheduler::Corruption::kLostMachine);
  EXPECT_FALSE(service.validate_state().ok());
}

}  // namespace
}  // namespace harmony
