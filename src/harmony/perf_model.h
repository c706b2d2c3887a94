// Harmony's analytical performance model (§IV-B2, Eq. 1–4).
//
// Given the profiled subtask times of the jobs in a group and the group's
// machine count (DoP), the model predicts the group iteration time and the
// CPU/network utilization that subtask-pipelined execution will achieve.
// The scheduler searches over groupings/allocations by evaluating this model.
#pragma once

#include <span>
#include <vector>

#include "harmony/job.h"

namespace harmony::core {

// Weight of CPU utilization in the scalar score; the paper treats CPU as more
// important than network "since CPU resources directly contribute to the job
// progress" (§IV-B2).
inline constexpr double kCpuWeight = 0.7;
// Soft preference for fewer jobs per group ("for shorter JCTs and lower
// memory pressure"): each extra job beyond the first costs this much of the
// score. A tie-breaker, small enough that real utilization gains always
// dominate at cluster scale.
inline constexpr double kPerJobPenalty = 0.002;

// Two-dimensional utilization vector (Eq. 3 / Eq. 4).
struct Utilization {
  double cpu = 0.0;
  double net = 0.0;

  bool operator==(const Utilization&) const = default;
};

// A candidate group: the profiles of its member jobs plus its DoP.
struct GroupShape {
  std::vector<JobProfile> jobs;
  std::size_t machines = 0;
};

// Which resource Eq. 1 says bounds a group's iteration: the CPU lane
// (Σ T_cpu dominates) or the network lane (Σ T_net dominates). The
// bound-switch at the heart of Algorithm 1's performance model — adding
// machines shrinks COMP until the group flips to network-bound (§IV).
enum class Bound : std::uint8_t { kCpu, kNet };

const char* to_string(Bound bound) noexcept;

// One group's share of Eq. 4 and of the score's job/group counts. `machines`
// is 0 for a group Eq. 4 skips (no jobs or no machines); otherwise `cpu` and
// `net` are m · u_cpu and m · u_net.
struct GroupTerm {
  double cpu = 0.0;
  double net = 0.0;
  double machines = 0.0;
  std::size_t jobs = 0;
};

class PerfModel {
 public:
  // Eq. 1: T_g_itr = max(Σ T_cpu, Σ T_net, max_j T_j_itr).
  static double group_iteration_time(const GroupShape& group);

  // Eq. 1's arg-max over the two resource lanes: CPU-bound when Σ T_cpu ≥
  // Σ T_net, network-bound otherwise (ties go to CPU, matching the model's
  // "CPU directly contributes to progress" preference).
  static Bound group_bound(const GroupShape& group);

  // Eq. 3: per-resource busy fraction within a group iteration.
  static Utilization group_utilization(const GroupShape& group);

  // The group's Eq. 4 term. The span overload scores member profiles in
  // place (the scheduler keeps each candidate group as a contiguous run of
  // one array); the GroupShape overload calls it.
  static GroupTerm group_term(std::span<const JobProfile> jobs, std::size_t machines);
  static GroupTerm group_term(const GroupShape& group);

  // Eq. 4: machine-weighted average across groups.
  static Utilization cluster_utilization(std::span<const GroupShape> groups);

  // Scalar objective the scheduler maximizes: weighted utilization minus the
  // small-group preference penalty (kCpuWeight, kPerJobPenalty). Defined
  // here so the incremental scheduler's join probes evaluate it inline.
  static double score(std::span<const GroupShape> groups);
  static double score_scalar(const Utilization& u, std::size_t total_jobs,
                             std::size_t total_groups) noexcept {
    const double util = kCpuWeight * u.cpu + (1.0 - kCpuWeight) * u.net;
    return util - job_penalty(total_jobs, total_groups);
  }
  // The score's small-group preference term: kPerJobPenalty per job beyond
  // one per group.
  static double job_penalty(std::size_t total_jobs, std::size_t total_groups) noexcept {
    const double extra_jobs =
        total_jobs > total_groups ? static_cast<double>(total_jobs - total_groups) : 0.0;
    return kPerJobPenalty * extra_jobs;
  }
};

// Eq. 4 and the score over a sequence of group terms, summed in the order
// they are added. cluster_utilization and score are this fold over their
// groups in span order, so a caller that caches terms (the regrouper scores
// many candidate clusters that share most of their groups) reproduces them
// bit for bit by adding the same terms in the same order.
struct ScoreFold {
  Utilization weighted;  // Σ m · u over the non-skipped groups
  double machines = 0.0;
  std::size_t jobs = 0;
  std::size_t nonempty_groups = 0;

  void add(const GroupTerm& t) noexcept {
    jobs += t.jobs;
    if (t.jobs > 0) ++nonempty_groups;
    if (t.machines <= 0.0) return;
    weighted.cpu += t.cpu;
    weighted.net += t.net;
    machines += t.machines;
  }
  Utilization utilization() const noexcept {
    if (machines <= 0.0) return {};
    return Utilization{weighted.cpu / machines, weighted.net / machines};
  }
  double score() const { return PerfModel::score_scalar(utilization(), jobs, nonempty_groups); }
};

}  // namespace harmony::core
