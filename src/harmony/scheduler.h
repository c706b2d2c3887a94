// Harmony's job scheduling algorithm (§IV-B3, Algorithm 1).
//
// Given the ordered pool of schedulable jobs (profiled ∪ paused ∪ running)
// and M machines, the scheduler incrementally grows the set of jobs to
// co-schedule. For each candidate set it:
//   1. picks the number of groups n_G* that best balances each job's COMP
//      time (which scales with group DoP = M / n_G) against its COMM time;
//   2. assigns jobs to groups — sorted by iteration time so similarly-sized
//      jobs land together (avoiding job-bound groups), then fine-tuned by
//      swapping jobs between the most imbalanced and the most complementary
//      groups;
//   3. allocates machines — one per group, then greedily to the most
//      CPU-bound group.
// The loop stops as soon as the modelled cluster utilization stops improving.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "harmony/job.h"
#include "harmony/perf_model.h"

namespace harmony::core {

// One job as the scheduler sees it.
struct SchedJob {
  JobId id = kNoJob;
  JobProfile profile;
};

struct GroupPlan {
  std::vector<JobId> jobs;
  std::size_t machines = 0;
};

struct ScheduleDecision {
  std::vector<GroupPlan> groups;
  Utilization predicted_util;
  double score = 0.0;
  // How many jobs from the front of the input list were placed.
  std::size_t jobs_scheduled = 0;

  bool empty() const noexcept { return groups.empty(); }
};

// Upper bound on co-located jobs per group (memory pressure and per-job
// progress both degrade with very wide groups; the paper's groups hold 2-6
// jobs typically, Fig. 12). Shared by schedule()/repack() and
// IncrementalScheduler.
inline constexpr std::size_t kMaxJobsPerGroup = 6;

// Algorithm 1. `jobs` must be in queue order. Profiles are validated lazily
// as the candidate prefix grows, so only jobs the search actually examines
// must be valid — an invalid profile deep in a long queue goes unnoticed if
// the growth loop stops before reaching it.
ScheduleDecision schedule(std::span<const SchedJob> jobs, std::size_t machines);

// Re-packs an already-admitted job set: steps 1-3 of Algorithm 1 over *all*
// of `jobs`, with enough groups to respect kMaxJobsPerGroup — no prefix
// growth, nothing parked. schedule() optimizes which queue prefix to admit;
// repack() re-optimizes the layout of jobs that are already running and so
// cannot be evicted (the online service's full-reschedule escalation, and
// the reference the incremental-vs-full equivalence validator scores
// against).
ScheduleDecision repack(std::span<const SchedJob> jobs, std::size_t machines);

// Step 2 of the algorithm, exposed for tests: assigns `jobs` into
// `num_groups` groups (no machine counts yet).
std::vector<std::vector<SchedJob>> assign_jobs(std::span<const SchedJob> jobs,
                                               std::size_t num_groups, std::size_t dop_hint);

// Step 3: distributes `machines` across the groups (>= 1 each).
std::vector<std::size_t> allocate_machines(const std::vector<std::vector<SchedJob>>& groups,
                                           std::size_t machines);

// Step 1: the n_G* that minimizes Σ_j |T_cpu_j(M/n_G) - T_net_j|.
// Ties resolve to the smallest n_G (candidates are examined in ascending
// order with a strict '<'): fewer groups means a higher DoP per group, and
// at equal cost the faster iterations are preferable.
std::size_t pick_num_groups(std::span<const SchedJob> jobs, std::size_t machines);

}  // namespace harmony::core
