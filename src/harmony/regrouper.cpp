#include "harmony/regrouper.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "common/stats.h"
#include "obs/metrics.h"

namespace harmony::core {
namespace {

// The paper's twin 5 % thresholds (§IV-B4): how close two jobs (or a job and
// a pair) must be to count as similar, and the relative gain a larger
// regroup decision must show before it is preferred or applied at all.
constexpr double kSimilarity = 0.05;
constexpr double kMinBenefit = 0.05;

// Pure observation of which branch of the §IV-B rules fired; never read back.
void count_action(const char* name) {
  obs::MetricsRegistry::instance().counter(name).add();
}

std::vector<GroupShape> to_shapes(std::span<const RunningGroup> groups) {
  std::vector<GroupShape> shapes;
  shapes.reserve(groups.size());
  for (const RunningGroup& g : groups) {
    GroupShape s;
    s.machines = g.machines;
    for (const SchedJob& j : g.jobs) s.jobs.push_back(j.profile);
    shapes.push_back(std::move(s));
  }
  return shapes;
}

}  // namespace

bool similar_jobs(const JobProfile& a, const JobProfile& b, std::size_t dop) {
  const double itr_err = relative_error(a.t_itr(dop), b.t_itr(dop));
  const double ratio_err = relative_error(a.comp_ratio(dop), b.comp_ratio(dop));
  return itr_err <= kSimilarity && ratio_err <= kSimilarity;
}

RegroupAction regroup_on_arrival(const SchedJob& new_job, std::span<const SchedJob> idle,
                                 std::span<const RunningGroup> groups) {
  RegroupAction action;
  // Other profiled/paused jobs exist => the scheduler already chose not to
  // run them; the new arrival waits with them.
  if (!idle.empty() || groups.empty()) return action;

  auto shapes = to_shapes(groups);
  const double current = PerfModel::score(shapes);

  double best_score = current;
  std::size_t best_group = groups.size();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    shapes[g].jobs.push_back(new_job.profile);
    const double score = PerfModel::score(shapes);
    shapes[g].jobs.pop_back();
    if (score > best_score) {
      best_score = score;
      best_group = g;
    }
  }
  if (best_group == groups.size()) {
    count_action("regrouper.arrival_wait");
    return action;  // no group improves U: wait
  }

  action.kind = RegroupAction::Kind::kAddToGroup;
  action.group_index = best_group;
  count_action("regrouper.arrival_add_to_group");
  return action;
}

RegroupAction regroup_on_finish(const SchedJob& finished, std::size_t group_index,
                                std::span<const SchedJob> idle,
                                std::span<const RunningGroup> groups,
                                std::size_t spare_machines) {
  RegroupAction action;
  if (group_index >= groups.size()) return action;
  const std::size_t dop = std::max<std::size_t>(1, groups[group_index].machines);

  // (1) One similar job.
  for (const SchedJob& cand : idle) {
    if (similar_jobs(cand.profile, finished.profile, dop)) {
      action.kind = RegroupAction::Kind::kReplace;
      action.group_index = group_index;
      action.replacements = {cand};
      count_action("regrouper.finish_replace");
      return action;
    }
  }

  // (2) A bunch (pair) of idle jobs whose *sums* match the finished job:
  // total iteration time within 5 % and summed comp/comm ratio within 5 %.
  // The scan is quadratic in the idle pool, so each job's T_cpu at this DoP
  // is computed once, and the ratio (a division) only for pairs whose
  // iteration time already matches.
  const double target_itr = finished.profile.t_itr(dop);
  const double target_ratio = finished.profile.comp_ratio(dop);
  std::vector<double> t_cpu(idle.size());
  for (std::size_t i = 0; i < idle.size(); ++i) t_cpu[i] = idle[i].profile.t_cpu(dop);
  for (std::size_t a = 0; a < idle.size(); ++a) {
    for (std::size_t b = a + 1; b < idle.size(); ++b) {
      const double sum_cpu = t_cpu[a] + t_cpu[b];
      const double sum_net = idle[a].profile.t_net + idle[b].profile.t_net;
      const double sum_itr = sum_cpu + sum_net;
      // Negated <= rather than >: a NaN error must reject the pair.
      if (!(relative_error(sum_itr, target_itr) <= kSimilarity)) continue;
      const double ratio = sum_itr > 0.0 ? sum_cpu / sum_itr : 0.0;
      if (relative_error(ratio, target_ratio) <= kSimilarity) {
        action.kind = RegroupAction::Kind::kReplace;
        action.group_index = group_index;
        action.replacements = {idle[a], idle[b]};
        count_action("regrouper.finish_replace");
        return action;
      }
    }
  }

  // (3) Involve other groups, smallest-first, via Algorithm 1. We grow the
  // set of participating groups and keep the smallest decision unless a
  // bigger one wins by more than kMinBenefit.
  auto shapes = to_shapes(groups);
  const double current_score = PerfModel::score(shapes);

  // Order candidate partner groups by job count (the paper starts with the
  // group with the fewest jobs).
  std::vector<std::size_t> partners;
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (g != group_index) partners.push_back(g);
  std::sort(partners.begin(), partners.end(), [&groups](std::size_t a, std::size_t b) {
    return groups[a].jobs.size() < groups[b].jobs.size();
  });

  std::optional<RegroupAction> best;
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t best_job_count = SIZE_MAX;

  std::vector<std::size_t> involved = {group_index};
  std::vector<SchedJob> pool(groups[group_index].jobs);
  // Idle jobs participate too (they may fill the hole).
  pool.insert(pool.end(), idle.begin(), idle.end());
  std::size_t machines = groups[group_index].machines + spare_machines;

  // Id -> pool index, grown alongside `pool`, so mapping a decision's job ids
  // back to profiles is O(1) per id instead of a linear pool scan. First
  // insertion wins, matching a forward find_if when ids repeat.
  std::unordered_map<JobId, std::size_t> pool_index;
  pool_index.reserve(pool.size() + groups.size() * 4);
  std::size_t indexed = 0;
  const auto index_new_pool_jobs = [&] {
    for (; indexed < pool.size(); ++indexed)
      pool_index.emplace(pool[indexed].id, indexed);
  };
  index_new_pool_jobs();

  for (std::size_t step = 0; step <= partners.size(); ++step) {
    ScheduleDecision decision = schedule(pool, machines);
    if (!decision.empty()) {
      // Score of the whole cluster if this decision replaces the involved
      // groups: involved groups are re-shaped, others stay.
      std::vector<GroupShape> candidate_shapes;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (std::find(involved.begin(), involved.end(), g) != involved.end()) continue;
        candidate_shapes.push_back(shapes[g]);
      }
      for (const GroupPlan& plan : decision.groups) {
        GroupShape s;
        s.machines = plan.machines;
        for (JobId id : plan.jobs) {
          auto it = pool_index.find(id);
          if (it != pool_index.end()) s.jobs.push_back(pool[it->second].profile);
        }
        candidate_shapes.push_back(std::move(s));
      }
      const double score = PerfModel::score(candidate_shapes);
      const std::size_t jobs_touched = pool.size();
      // Prefer fewer jobs unless the larger decision is >5 % better.
      const bool better =
          !best ||
          (jobs_touched < best_job_count && score >= best_score * (1.0 - kMinBenefit)) ||
          score > best_score * (1.0 + kMinBenefit);
      if (better) {
        RegroupAction a;
        a.kind = RegroupAction::Kind::kReschedule;
        a.decision = decision;
        a.groups_involved = involved;
        best = std::move(a);
        best_score = score;
        best_job_count = jobs_touched;
      }
    }
    if (step == partners.size()) break;
    const std::size_t next = partners[step];
    involved.push_back(next);
    pool.insert(pool.end(), groups[next].jobs.begin(), groups[next].jobs.end());
    index_new_pool_jobs();
    machines += groups[next].machines;
  }

  // Skip regrouping entirely when the expected benefit is under 5 % of U.
  if (!best ||
      best_score - current_score < kMinBenefit * std::max(current_score, 1e-9)) {
    count_action("regrouper.finish_none");
    return action;
  }
  count_action("regrouper.finish_reschedule");
  return *best;
}

}  // namespace harmony::core
