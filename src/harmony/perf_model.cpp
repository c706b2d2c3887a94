#include "harmony/perf_model.h"

#include <algorithm>
#include <cassert>

namespace harmony::core {
namespace {

// Weight of CPU utilization in the scalar score; the paper treats CPU as more
// important than network "since CPU resources directly contribute to the job
// progress" (§IV-B2).
constexpr double kCpuWeight = 0.7;
// Soft preference for fewer jobs per group ("for shorter JCTs and lower
// memory pressure"): each extra job beyond the first costs this much of the
// score. A tie-breaker, small enough that real utilization gains always
// dominate at cluster scale.
constexpr double kPerJobPenalty = 0.002;

}  // namespace

const char* to_string(Bound bound) noexcept {
  return bound == Bound::kCpu ? "cpu" : "net";
}

Bound PerfModel::group_bound(const GroupShape& group) {
  double sum_cpu = 0.0;
  double sum_net = 0.0;
  for (const JobProfile& j : group.jobs) {
    sum_cpu += j.t_cpu(group.machines);
    sum_net += j.t_net;
  }
  return sum_cpu >= sum_net ? Bound::kCpu : Bound::kNet;
}

double PerfModel::group_iteration_time(const GroupShape& group) {
  assert(group.machines > 0);
  double sum_cpu = 0.0;
  double sum_net = 0.0;
  double max_itr = 0.0;
  for (const JobProfile& j : group.jobs) {
    sum_cpu += j.t_cpu(group.machines);
    sum_net += j.t_net;
    max_itr = std::max(max_itr, j.t_itr(group.machines));
  }
  return std::max({sum_cpu, sum_net, max_itr});
}

Utilization PerfModel::group_utilization(const GroupShape& group) {
  const double t_itr = group_iteration_time(group);
  if (t_itr <= 0.0) return {};
  double sum_cpu = 0.0;
  double sum_net = 0.0;
  for (const JobProfile& j : group.jobs) {
    sum_cpu += j.t_cpu(group.machines);
    sum_net += j.t_net;
  }
  return Utilization{sum_cpu / t_itr, sum_net / t_itr};
}

GroupTerm PerfModel::group_term(const GroupShape& group) {
  GroupTerm t;
  t.jobs = group.jobs.size();
  if (group.jobs.empty() || group.machines == 0) return t;
  const Utilization u = group_utilization(group);
  t.machines = static_cast<double>(group.machines);
  t.cpu = t.machines * u.cpu;
  t.net = t.machines * u.net;
  return t;
}

Utilization PerfModel::cluster_utilization(std::span<const GroupShape> groups) {
  ScoreFold fold;
  for (const GroupShape& g : groups) fold.add(group_term(g));
  return fold.utilization();
}

double PerfModel::score_scalar(const Utilization& u, std::size_t total_jobs,
                               std::size_t total_groups) {
  const double util = kCpuWeight * u.cpu + (1.0 - kCpuWeight) * u.net;
  const double extra_jobs =
      total_jobs > total_groups ? static_cast<double>(total_jobs - total_groups) : 0.0;
  return util - kPerJobPenalty * extra_jobs;
}

double PerfModel::score(std::span<const GroupShape> groups) {
  ScoreFold fold;
  for (const GroupShape& g : groups) fold.add(group_term(g));
  return fold.score();
}

}  // namespace harmony::core
