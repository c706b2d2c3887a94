// Online service mode (src/svc) and its incremental rescheduler
// (harmony/incremental): admission-queue policies, bounded join/leave repair
// with machine conservation, the drift trigger, incremental-vs-full
// equivalence within the documented bound, bit-identical seeded service runs,
// and corruption detection by the deep validators.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/rng.h"
#include "exp/workload.h"
#include "harmony/incremental.h"
#include "harmony/scheduler.h"
#include "harmony/validate.h"
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
  core::validate_incremental_state(inc, v);
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
  // co-schedule. force=true bypasses the gate.
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
  const auto forced = inc.join(awkward, /*force=*/true);
  EXPECT_TRUE(forced.has_value());
  expect_valid(inc);
}

TEST(IncrementalScheduler, DriftRisesOnDecayAndResetsOnAdopt) {
  core::IncrementalScheduler inc(kDriftThreshold, 80);
  for (core::JobId id = 0; id < 16; ++id) inc.join(job(id, 220.0, 10.0), true);
  EXPECT_GE(inc.drift(), 0.0);

  // Forced churn decays the grouping; drift must eventually cross the
  // threshold (the escalation trigger the service relies on).
  core::JobId next = 100;
  for (int round = 0; round < 200 && !inc.needs_full_reschedule(); ++round) {
    for (core::JobId id = 0; id < 100; ++id)
      if (inc.contains(id)) {
        inc.leave(id);
        break;
      }
    inc.join(job(next++, 1500.0, 2.0), true);
  }
  EXPECT_TRUE(inc.needs_full_reschedule());

  // A full Algorithm-1 repack adopted back in resets the baseline.
  const auto pool = inc.pool();
  inc.adopt(core::repack(pool, inc.total_machines()), pool);
  EXPECT_LT(inc.drift(), kDriftThreshold);
  EXPECT_EQ(inc.running_jobs(), pool.size());
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

TEST(IncrementalScheduler, CorruptionInjectionIsDetected) {
  using Corruption = core::IncrementalScheduler::Corruption;
  for (const Corruption kind :
       {Corruption::kLostMachine, Corruption::kDuplicateJob,
        Corruption::kSkewedAggregate}) {
    core::IncrementalScheduler inc(kDriftThreshold, 60);
    for (core::JobId id = 0; id < 8; ++id) inc.join(job(id, 200.0, 8.0), true);
    expect_valid(inc);
    inc.corrupt_for_test(kind);
    check::Validation v("incremental");
    core::validate_incremental_state(inc, v);
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

TEST(Service, StateValidatesCleanAfterRunAndCorruptionIsDetected) {
  svc::Service service(small_service_config(), exp::make_catalog());
  service.run();
  EXPECT_TRUE(service.validate_state().ok());
  service.corrupt_for_test(core::IncrementalScheduler::Corruption::kLostMachine);
  EXPECT_FALSE(service.validate_state().ok());
}

}  // namespace
}  // namespace harmony
