// Dynamic job regrouping (§IV-B4).
//
// Scheduling re-triggers on two events — a job arrival and a job completion —
// and the regrouper's whole point is to involve as few jobs as possible:
//
//  * Arrival: after profiling, the new job is only considered when no other
//    profiled/paused jobs are queued (their existence means the scheduler is
//    already satisfied with the running set). It is added to the group that
//    maximizes modelled utilization, or keeps waiting if no group improves.
//
//  * Completion: the finished job's group must be made compute/communication
//    balanced again. First look for one similar idle job (iteration time and
//    comp/comm ratio within 5 %); then for a small bunch of jobs whose sums
//    match within 5 %; only then fall back to Algorithm 1 over progressively
//    more groups, preferring decisions that touch fewer jobs unless a larger
//    decision wins by more than 5 %. Regrouping is skipped entirely when the
//    expected benefit is below 5 % of U.
#pragma once

#include <span>
#include <vector>

#include "harmony/scheduler.h"

namespace harmony::core {

// A running group as the regrouper sees it.
struct RunningGroup {
  std::vector<SchedJob> jobs;
  std::size_t machines = 0;
};

struct RegroupAction {
  enum class Kind {
    kNone,        // keep everything as is / leave the job waiting
    kAddToGroup,  // arrival: put the new job into groups[group_index]
    kReplace,     // completion: insert `replacements` into groups[group_index]
    kReschedule,  // completion: apply `decision` to groups in `groups_involved`
  };

  Kind kind = Kind::kNone;
  std::size_t group_index = 0;
  std::vector<SchedJob> replacements;
  ScheduleDecision decision;
  std::vector<std::size_t> groups_involved;
};

// `new_job` just finished profiling; `idle` are the other profiled/paused
// jobs. Returns kAddToGroup or kNone.
RegroupAction regroup_on_arrival(const SchedJob& new_job, std::span<const SchedJob> idle,
                                 std::span<const RunningGroup> groups);

// `finished` just left groups[group_index]. `idle` are profiled/paused
// candidates; `spare_machines` are unallocated machines the reschedule may
// also hand out (the cluster is work-conserving: allocateMachines always
// distributes everything it is given). Returns kReplace, kReschedule or
// kNone.
RegroupAction regroup_on_finish(const SchedJob& finished, std::size_t group_index,
                                std::span<const SchedJob> idle,
                                std::span<const RunningGroup> groups,
                                std::size_t spare_machines = 0);

// True when the two jobs are "similar": iteration time and comp/comm ratio
// both within the 5 % similarity threshold, at the given DoP.
bool similar_jobs(const JobProfile& a, const JobProfile& b, std::size_t dop);

}  // namespace harmony::core
