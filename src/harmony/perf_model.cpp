#include "harmony/perf_model.h"

#include <algorithm>
#include <cassert>

namespace harmony::core {
namespace {

// Eq. 1's lane sums and slowest member over a group's profiles, accumulated
// in member order. Every model quantity below reads these sums, so they all
// add the same terms in the same order (the scheduler goldens pin the bits).
struct LaneSums {
  double cpu = 0.0;
  double net = 0.0;
  double max_itr = 0.0;
};

LaneSums lane_sums(std::span<const JobProfile> jobs, std::size_t machines) {
  LaneSums sums;
  for (const JobProfile& j : jobs) {
    sums.cpu += j.t_cpu(machines);
    sums.net += j.t_net;
    sums.max_itr = std::max(sums.max_itr, j.t_itr(machines));
  }
  return sums;
}

Utilization lane_utilization(std::span<const JobProfile> jobs, std::size_t machines) {
  const LaneSums sums = lane_sums(jobs, machines);
  const double t_itr = std::max({sums.cpu, sums.net, sums.max_itr});
  if (t_itr <= 0.0) return {};
  return Utilization{sums.cpu / t_itr, sums.net / t_itr};
}

}  // namespace

const char* to_string(Bound bound) noexcept {
  return bound == Bound::kCpu ? "cpu" : "net";
}

Bound PerfModel::group_bound(const GroupShape& group) {
  const LaneSums sums = lane_sums(group.jobs, group.machines);
  return sums.cpu >= sums.net ? Bound::kCpu : Bound::kNet;
}

double PerfModel::group_iteration_time(const GroupShape& group) {
  assert(group.machines > 0);
  const LaneSums sums = lane_sums(group.jobs, group.machines);
  return std::max({sums.cpu, sums.net, sums.max_itr});
}

Utilization PerfModel::group_utilization(const GroupShape& group) {
  assert(group.machines > 0);
  return lane_utilization(group.jobs, group.machines);
}

GroupTerm PerfModel::group_term(std::span<const JobProfile> jobs, std::size_t machines) {
  GroupTerm t;
  t.jobs = jobs.size();
  if (jobs.empty() || machines == 0) return t;
  const Utilization u = lane_utilization(jobs, machines);
  t.machines = static_cast<double>(machines);
  t.cpu = t.machines * u.cpu;
  t.net = t.machines * u.net;
  return t;
}

GroupTerm PerfModel::group_term(const GroupShape& group) {
  return group_term(group.jobs, group.machines);
}

Utilization PerfModel::cluster_utilization(std::span<const GroupShape> groups) {
  ScoreFold fold;
  for (const GroupShape& g : groups) fold.add(group_term(g));
  return fold.utilization();
}

double PerfModel::score(std::span<const GroupShape> groups) {
  ScoreFold fold;
  for (const GroupShape& g : groups) fold.add(group_term(g));
  return fold.score();
}

}  // namespace harmony::core
