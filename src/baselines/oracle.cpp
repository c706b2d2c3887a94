#include "baselines/oracle.h"

#include <stdexcept>
#include <vector>

namespace harmony::baselines {

OracleResult oracle_schedule(std::span<const core::SchedJob> jobs, std::size_t machines) {
  if (jobs.size() > kOracleMaxJobs)
    throw std::invalid_argument("oracle_schedule: too many jobs for exhaustive search");

  OracleResult result;
  core::ScheduleDecision& best = result.decision;
  best.score = -1e300;

  // Enumerate set-partitions with the restricted-growth-string method: job i
  // goes into block assignment[i], where assignment[i] <= max(assignment[0..i-1]) + 1.
  std::vector<std::size_t> assignment(jobs.size(), 0);

  auto evaluate = [&]() {
    ++result.partitions_examined;
    std::size_t blocks = 0;
    for (std::size_t a : assignment) blocks = std::max(blocks, a + 1);
    if (blocks > machines) return;  // each group needs >= 1 machine

    std::vector<std::vector<core::SchedJob>> groups(blocks);
    for (std::size_t i = 0; i < assignment.size(); ++i)
      groups[assignment[i]].push_back(jobs[i]);

    const auto alloc = core::allocate_machines(groups, machines);
    std::vector<core::GroupShape> shapes;
    shapes.reserve(blocks);
    for (std::size_t g = 0; g < blocks; ++g) {
      core::GroupShape s;
      s.machines = alloc[g];
      for (const core::SchedJob& j : groups[g]) s.jobs.push_back(j.profile);
      shapes.push_back(std::move(s));
    }
    const double score = core::PerfModel::score(shapes);
    if (score > best.score) {
      best.score = score;
      best.predicted_util = core::PerfModel::cluster_utilization(shapes);
      best.groups.clear();
      best.jobs_scheduled = assignment.size();
      for (std::size_t g = 0; g < blocks; ++g) {
        core::GroupPlan plan;
        plan.machines = alloc[g];
        for (const core::SchedJob& j : groups[g]) plan.jobs.push_back(j.id);
        best.groups.push_back(std::move(plan));
      }
    }
  };

  if (jobs.empty()) return result;

  // Like Algorithm 1, the scheduler may choose to run only a prefix of the
  // queue; the ground truth must search that dimension too. For each prefix
  // length, enumerate all set-partitions of the prefix via restricted-growth
  // strings (position i may increment iff assignment[i] <= max of its prefix).
  for (std::size_t prefix = 1; prefix <= jobs.size(); ++prefix) {
    assignment.assign(prefix, 0);
    auto next_partition = [&assignment]() -> bool {
      for (std::size_t i = assignment.size(); i-- > 1;) {
        std::size_t prefix_max = 0;
        for (std::size_t k = 0; k < i; ++k) prefix_max = std::max(prefix_max, assignment[k]);
        if (assignment[i] <= prefix_max) {
          ++assignment[i];
          std::fill(assignment.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    assignment.end(), 0);
          return true;
        }
      }
      return false;
    };
    evaluate();
    while (next_partition()) evaluate();
  }
  return result;
}

}  // namespace harmony::baselines
