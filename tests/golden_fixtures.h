// Shared fixtures for the golden-determinism tests (test_scheduler_golden.cpp)
// and the checked-in generator (tools/golden_gen.cpp).
//
// The golden values pin the *exact* behaviour of Algorithm 1, the cluster
// simulator and the online service for fixed seeds: any change to scheduling decisions or simulated
// metrics — including floating-point drift introduced by a performance
// refactor — flips a hash or a recorded double and fails the test. Regenerate
// deliberately with `golden-gen` only when a behaviour change is intended.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"
#include "harmony/scheduler.h"
#include "svc/service.h"

namespace harmony::golden {

// --- FNV-1a 64-bit over structured decision content -------------------------

inline std::uint64_t fnv1a_init() { return 14695981039346656037ULL; }

inline void fnv1a_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

template <typename T>
void fnv1a_value(std::uint64_t& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  fnv1a_bytes(h, &v, sizeof(v));
}

// Hashes everything observable about a decision: the exact group assignments
// and machine counts, plus the bit patterns of the modelled score/utilization
// (so even sub-ulp drift in the evaluation pipeline is caught).
inline std::uint64_t hash_decision(const core::ScheduleDecision& d) {
  std::uint64_t h = fnv1a_init();
  fnv1a_value(h, d.jobs_scheduled);
  fnv1a_value(h, d.score);
  fnv1a_value(h, d.predicted_util.cpu);
  fnv1a_value(h, d.predicted_util.net);
  fnv1a_value(h, d.groups.size());
  for (const core::GroupPlan& g : d.groups) {
    fnv1a_value(h, g.machines);
    fnv1a_value(h, g.jobs.size());
    for (core::JobId id : g.jobs) fnv1a_value(h, id);
  }
  return h;
}

// --- Scheduler pools --------------------------------------------------------

// Matches bench_sched_scalability's synthetic distribution.
inline std::vector<core::SchedJob> synthetic_pool(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::SchedJob> jobs;
  jobs.reserve(n);
  for (core::JobId i = 0; i < n; ++i)
    jobs.push_back(
        core::SchedJob{i, core::JobProfile{rng.uniform(400, 8000), rng.uniform(20, 400)}});
  return jobs;
}

// The paper's 80-job catalog as a scheduling pool (realistic comp/comm mix;
// the prefix growth goes much deeper here than on the synthetic pools).
inline std::vector<core::SchedJob> catalog_pool() {
  std::vector<core::SchedJob> jobs;
  for (const exp::WorkloadSpec& s : exp::make_catalog(2021)) jobs.push_back(s.sched_job());
  return jobs;
}

struct SchedCase {
  const char* name;
  std::vector<core::SchedJob> jobs;
  std::size_t machines;
};

inline std::vector<SchedCase> scheduler_cases() {
  std::vector<SchedCase> cases;
  cases.push_back({"synthetic_80_100", synthetic_pool(80, 11), 100});
  cases.push_back({"synthetic_500_1000", synthetic_pool(500, 12), 1000});
  cases.push_back({"synthetic_2000_4000", synthetic_pool(2000, 13), 4000});
  cases.push_back({"catalog_80_100", catalog_pool(), 100});
  return cases;
}

// --- ClusterSim end-to-end cases -------------------------------------------

// Most cases use Poisson arrivals, so every job has its own submit time. The
// batch case submits every job at t = 0; the simulator orders equal submit
// times by job id (its pinned (submit_time, id) scheduling order), so that
// golden is just as well defined.
struct SimCase {
  const char* name;
  exp::ClusterSimConfig config;
  std::vector<exp::WorkloadSpec> workload;
  std::vector<double> arrivals;
};

// The 80-job catalog, tiled past 80 jobs (ClusterSim reassigns the ids),
// with iteration counts capped at max_iters.
inline std::vector<exp::WorkloadSpec> capped_catalog(std::size_t n, std::size_t max_iters) {
  const auto catalog = exp::make_catalog(2021);
  std::vector<exp::WorkloadSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(catalog[i % catalog.size()]);
    out.back().iterations = std::min(out.back().iterations, max_iters);
  }
  return out;
}

inline constexpr const char* kBatchCaseName = "harmony_batch_400jobs_200machines";

inline std::vector<SimCase> sim_cases() {
  std::vector<SimCase> cases;
  {
    SimCase c;
    c.name = "harmony_24jobs_24machines";
    c.config = exp::ClusterSimConfig::harmony();
    c.config.machines = 24;
    c.config.seed = 7;
    c.workload = capped_catalog(24, 12);
    c.arrivals = exp::poisson_arrivals(c.workload.size(), 300.0, 3);
    cases.push_back(std::move(c));
  }
  {
    SimCase c;
    c.name = "harmony_48jobs_40machines";
    c.config = exp::ClusterSimConfig::harmony();
    c.config.machines = 40;
    c.config.seed = 21;
    c.workload = capped_catalog(48, 10);
    c.arrivals = exp::poisson_arrivals(c.workload.size(), 120.0, 9);
    cases.push_back(std::move(c));
  }
  {
    // A waiting backlog far deeper than kMaxProfilingJobs: arrivals every
    // ~2 s outpace hour-long jobs, so profiling admission runs against
    // hundreds of queued jobs.
    SimCase c;
    c.name = "harmony_400jobs_40machines_backlog";
    c.config = exp::ClusterSimConfig::harmony();
    c.config.machines = 40;
    c.config.seed = 5;
    c.workload = capped_catalog(400, 6);
    c.arrivals = exp::poisson_arrivals(c.workload.size(), 2.0, 13);
    cases.push_back(std::move(c));
  }
  // The baselines and the non-default Harmony paths: the isolated DoP rule,
  // the contended naive driver, the no-spill fallback (fits_without_spill /
  // place_fallback_isolated) and the fixed-α branch of refresh_alpha.
  {
    SimCase c;
    c.name = "isolated_24jobs_24machines";
    c.config = exp::ClusterSimConfig::isolated();
    c.config.machines = 24;
    c.config.seed = 7;
    c.workload = capped_catalog(24, 12);
    c.arrivals = exp::poisson_arrivals(c.workload.size(), 300.0, 3);
    cases.push_back(std::move(c));
  }
  {
    SimCase c;
    c.name = "naive3_24jobs_24machines";
    c.config = exp::ClusterSimConfig::naive(3);
    c.config.machines = 24;
    c.config.seed = 7;
    c.workload = capped_catalog(24, 12);
    c.arrivals = exp::poisson_arrivals(c.workload.size(), 300.0, 3);
    cases.push_back(std::move(c));
  }
  {
    SimCase c;
    c.name = "harmony_nospill_48jobs_100machines";
    c.config = exp::ClusterSimConfig::harmony();
    c.config.spill_enabled = false;
    c.config.machines = 100;
    c.config.seed = 7;
    c.workload = capped_catalog(48, 10);
    c.arrivals = exp::poisson_arrivals(c.workload.size(), 60.0, 3);
    cases.push_back(std::move(c));
  }
  {
    SimCase c;
    c.name = "onegroup_fixed_alpha_8jobs_16machines";
    c.config = exp::ClusterSimConfig::harmony();
    c.config.grouping = exp::GroupingPolicy::kOneGroup;
    c.config.fixed_alpha = 0.4;
    c.config.machines = 16;
    c.config.seed = 7;
    c.workload = capped_catalog(8, 12);
    c.arrivals = exp::poisson_arrivals(c.workload.size(), 300.0, 3);
    cases.push_back(std::move(c));
  }
  {
    // Batch arrivals into a deep idle pool: the one case where the
    // completion rules (a similar job, a similar pair, Algorithm 1 over more
    // and more groups) and the spare-machine pass all run against hundreds
    // of idle jobs. Same workload as `harmony-sim --jobs 400 --machines 200
    // --arrival batch`.
    SimCase c;
    c.name = kBatchCaseName;
    c.config = exp::ClusterSimConfig::harmony();
    c.config.machines = 200;
    c.config.seed = 1;
    c.workload = capped_catalog(400, std::numeric_limits<std::size_t>::max());
    c.arrivals = exp::batch_arrivals(c.workload.size());
    cases.push_back(std::move(c));
  }
  return cases;
}

// Everything the simulator run reports, flattened for golden comparison.
struct SimGolden {
  double makespan = 0.0;
  double mean_jct = 0.0;
  double util_cpu = 0.0;
  double util_net = 0.0;
  double migration_overhead_sec = 0.0;
  std::uint64_t regroup_events = 0;
  std::uint64_t oom_events = 0;
  std::uint64_t jobs_completed = 0;
  double sum_finish_times = 0.0;  // order-independent digest of every JCT
  double avg_concurrent_jobs = 0.0;
  double avg_concurrent_groups = 0.0;
  std::uint64_t events_fired = 0;  // DES events, heap and recurring slot alike
  double alpha_mean = 0.0;
  double alpha_min = 0.0;
  double alpha_max = 0.0;
  std::uint64_t alpha_jobs_at_one = 0;
  std::uint64_t iteration_errors = 0;  // prediction_errors().group_iteration_rel_error
  double iteration_error_mean = 0.0;
  std::uint64_t utilization_errors = 0;  // prediction_errors().utilization_rel_error
  double utilization_error_mean = 0.0;
};

inline SimGolden run_sim_case(const SimCase& c) {
  exp::ClusterSim sim(c.config, c.workload, c.arrivals);
  const exp::RunSummary s = sim.run();
  SimGolden g;
  g.makespan = s.makespan;
  g.mean_jct = s.mean_jct();
  g.util_cpu = s.avg_util.cpu;
  g.util_net = s.avg_util.net;
  g.migration_overhead_sec = s.migration_overhead_sec;
  g.regroup_events = s.regroup_events;
  g.oom_events = s.oom_events;
  g.jobs_completed = s.jobs.size();
  for (const exp::JobOutcome& j : s.jobs) g.sum_finish_times += j.finish_time;
  g.avg_concurrent_jobs = sim.avg_concurrent_jobs();
  g.avg_concurrent_groups = sim.avg_concurrent_groups();
  g.events_fired = sim.events_fired();
  const exp::AlphaStats alpha = sim.alpha_stats();
  g.alpha_mean = alpha.mean;
  g.alpha_min = alpha.min;
  g.alpha_max = alpha.max;
  g.alpha_jobs_at_one = alpha.jobs_at_one;
  const exp::PredictionErrors& errors = sim.prediction_errors();
  g.iteration_errors = errors.group_iteration_rel_error.size();
  g.iteration_error_mean = errors.group_iteration_rel_error.mean();
  g.utilization_errors = errors.utilization_rel_error.size();
  g.utilization_error_mean = errors.utilization_rel_error.mean();
  return g;
}

// --- Service end-to-end cases ----------------------------------------------

// Online-service runs long enough for hundreds of drift-triggered full
// reschedules (each an adopt() of a repack over ~150 running jobs) and
// thousands of declined joins, so the goldens pin the incremental join/leave
// path, adopt() and the summary's quantiles together.
struct SvcCase {
  const char* name;
  svc::ServiceConfig config;
};

inline svc::ServiceConfig svc_case_config(svc::AdmissionPolicy admission,
                                          std::uint64_t seed) {
  svc::ServiceConfig c;
  c.machines = 10000;
  c.duration_sec = 1e6;
  c.mean_interarrival_sec = 50.0;  // 0.02 jobs/s
  c.admission = admission;
  c.seed = seed;
  return c;
}

inline std::vector<SvcCase> svc_cases() {
  return {
      {"svc_fifo_10000machines_seed1", svc_case_config(svc::AdmissionPolicy::kFifo, 1)},
      {"svc_fifo_10000machines_seed7", svc_case_config(svc::AdmissionPolicy::kFifo, 7)},
      {"svc_sjf_10000machines_seed7",
       svc_case_config(svc::AdmissionPolicy::kShortestJct, 7)},
  };
}

// ServiceSummary's deterministic block: every count, and the doubles the
// report prints (compared bit for bit, not at the report's precision).
struct SvcGolden {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t running_at_end = 0;
  std::uint64_t queued_at_end = 0;
  std::uint64_t scheduling_events = 0;
  std::uint64_t incremental_joins = 0;
  std::uint64_t incremental_leaves = 0;
  std::uint64_t groups_created = 0;
  std::uint64_t full_reschedules = 0;
  std::uint64_t live_groups_at_end = 0;
  std::uint64_t free_machines_at_end = 0;
  double jct_mean = 0.0;
  double jct_p50 = 0.0;
  double jct_p99 = 0.0;
  double queue_delay_mean = 0.0;
  double queue_delay_p50 = 0.0;
  double queue_delay_p99 = 0.0;
  double final_score = 0.0;
  double final_drift = 0.0;
};

inline SvcGolden run_svc_case(const SvcCase& c) {
  svc::Service service(c.config, exp::make_catalog());
  const svc::ServiceSummary s = service.run();
  SvcGolden g;
  g.arrivals = s.arrivals;
  g.admitted = s.admitted;
  g.rejected = s.rejected;
  g.completed = s.completed;
  g.running_at_end = s.running_at_end;
  g.queued_at_end = s.queued_at_end;
  g.scheduling_events = s.scheduling_events;
  g.incremental_joins = s.incremental_joins;
  g.incremental_leaves = s.incremental_leaves;
  g.groups_created = s.groups_created;
  g.full_reschedules = s.full_reschedules;
  g.live_groups_at_end = s.live_groups_at_end;
  g.free_machines_at_end = s.free_machines_at_end;
  g.jct_mean = s.jct_mean;
  g.jct_p50 = s.jct_p50;
  g.jct_p99 = s.jct_p99;
  g.queue_delay_mean = s.queue_delay_mean;
  g.queue_delay_p50 = s.queue_delay_p50;
  g.queue_delay_p99 = s.queue_delay_p99;
  g.final_score = s.final_score;
  g.final_drift = s.final_drift;
  return g;
}

}  // namespace harmony::golden
