#include "harmony/regrouper.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

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

// Rule (2)'s search: the first pair (a, b), a < b, in index order whose
// summed iteration time and summed comp/comm ratio are both within
// kSimilarity of the finished job's at `dop`.
//
// Instead of testing all O(n²) pairs, the jobs are sorted by their own T_itr
// and each a scans only the b whose T_itr lies in a window around
// T − T_itr(a). The pair test itself is exactly the original one, and among
// the matches the smallest b > a is kept, so the result is the same pair.
//
// Why the window holds every match (ε = 2⁻⁵², first order in ε throughout).
// Let c and n be a job's T_cpu and T_net, m = |c| + |n|, and T_itr =
// fl(c + n). The test forms S = fl(fl(c_a + c_b) + fl(n_a + n_b)) and
// accepts when fl(|S − T|) / D <= kSimilarity, D = max(|T|, 1e-12) being
// relative_error's floor. So an accepted pair has |S − T| <= h·(1 + ε) with
// h = kSimilarity·D. The five roundings in S, T_itr(a) and T_itr(b) each err
// by at most ε/2·(m_a + m_b), so |S − (T_itr(a) + T_itr(b))| <= 5ε·M, M
// being the largest m in the pool. Hence T_itr(b) lies within h + ε·h + 5ε·M
// of T − T_itr(a). Computing h and the window bounds adds at most
// 2ε·(|T| + h + M) more. The slack 1e-9·(|T| + h + 2M) exceeds the sum by
// over five orders of magnitude, yet stays a sliver of the window's width 2h
// unless the pool's largest job is ~10⁶× the target.
//
// Jobs with a non-finite T_cpu or T_net never match: a NaN term makes S NaN,
// an infinite one makes S infinite or NaN, and relative_error(S, T) is then
// never <= kSimilarity. They are left out, which also keeps NaN out of the
// sort. A non-finite target matches nothing for the same reason. If M
// overflows, the slack is infinite and the window is the whole pool.
std::optional<std::pair<std::size_t, std::size_t>> first_matching_pair(
    const JobProfile& target, std::size_t dop, std::span<const SchedJob> idle) {
  const double target_itr = target.t_itr(dop);
  const double target_ratio = target.comp_ratio(dop);
  if (idle.size() < 2 || !std::isfinite(target_itr)) return std::nullopt;

  std::vector<double> t_cpu(idle.size());
  for (std::size_t i = 0; i < idle.size(); ++i) t_cpu[i] = idle[i].profile.t_cpu(dop);
  const auto finite_terms = [&](std::size_t i) {
    return std::isfinite(t_cpu[i]) && std::isfinite(idle[i].profile.t_net);
  };

  struct Entry {
    double itr = 0.0;
    std::size_t index = 0;
  };
  std::vector<Entry> by_itr;
  by_itr.reserve(idle.size());
  double max_magnitude = 0.0;
  for (std::size_t i = 0; i < idle.size(); ++i) {
    if (!finite_terms(i)) continue;
    const double t_net = idle[i].profile.t_net;
    by_itr.push_back(Entry{t_cpu[i] + t_net, i});
    max_magnitude = std::max(max_magnitude, std::abs(t_cpu[i]) + std::abs(t_net));
  }
  std::sort(by_itr.begin(), by_itr.end(), [](const Entry& x, const Entry& y) {
    return x.itr != y.itr ? x.itr < y.itr : x.index < y.index;
  });

  const double half_width = kSimilarity * std::max(std::abs(target_itr), 1e-12);
  const double slack = 1e-9 * (std::abs(target_itr) + half_width + 2.0 * max_magnitude);
  const bool whole_pool = !std::isfinite(slack);

  // a walks the jobs in index order; the first a with any match decides.
  for (std::size_t a = 0; a < idle.size(); ++a) {
    if (!finite_terms(a)) continue;
    const double itr_a = t_cpu[a] + idle[a].profile.t_net;
    auto it = by_itr.begin();
    auto end = by_itr.end();
    if (!whole_pool) {
      const double lo = target_itr - half_width - itr_a - slack;
      const double hi = target_itr + half_width - itr_a + slack;
      it = std::lower_bound(by_itr.begin(), by_itr.end(), lo,
                            [](const Entry& e, double v) { return e.itr < v; });
      end = std::upper_bound(it, by_itr.end(), hi,
                             [](double v, const Entry& e) { return v < e.itr; });
    }
    std::size_t best_b = idle.size();
    for (; it != end; ++it) {
      const std::size_t b = it->index;
      if (b <= a || b >= best_b) continue;
      const double sum_cpu = t_cpu[a] + t_cpu[b];
      const double sum_net = idle[a].profile.t_net + idle[b].profile.t_net;
      const double sum_itr = sum_cpu + sum_net;
      // Negated <= rather than >: a NaN error must reject the pair.
      if (!(relative_error(sum_itr, target_itr) <= kSimilarity)) continue;
      const double ratio = sum_itr > 0.0 ? sum_cpu / sum_itr : 0.0;
      if (relative_error(ratio, target_ratio) <= kSimilarity) best_b = b;
    }
    if (best_b < idle.size()) return std::pair{a, best_b};
  }
  return std::nullopt;
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
  // The answer is the first matching pair in (a, b) index order.
  if (const auto pair = first_matching_pair(finished.profile, dop, idle)) {
    action.kind = RegroupAction::Kind::kReplace;
    action.group_index = group_index;
    action.replacements = {idle[pair->first], idle[pair->second]};
    count_action("regrouper.finish_replace");
    return action;
  }

  // (3) Involve other groups, smallest-first, via Algorithm 1. We grow the
  // set of participating groups and keep the smallest decision unless a
  // bigger one wins by more than kMinBenefit.
  //
  // A candidate's score is Eq. 4 over the untouched groups (in index order)
  // followed by the decision's groups. Each running group's term is computed
  // once here, so a step folds cached terms instead of re-scoring every
  // untouched group; ScoreFold adds them in PerfModel::score's order, so the
  // scores are bit-identical to scoring the assembled cluster.
  std::vector<GroupTerm> terms(groups.size());
  GroupShape shape;
  ScoreFold current;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    shape.machines = groups[g].machines;
    shape.jobs.clear();
    for (const SchedJob& j : groups[g].jobs) shape.jobs.push_back(j.profile);
    terms[g] = PerfModel::group_term(shape);
    current.add(terms[g]);
  }
  const double current_score = current.score();

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
  std::vector<std::uint8_t> is_involved(groups.size(), 0);
  is_involved[group_index] = 1;
  std::vector<SchedJob> pool(groups[group_index].jobs);
  // Idle jobs participate too (they may fill the hole).
  pool.insert(pool.end(), idle.begin(), idle.end());
  std::size_t machines = groups[group_index].machines + spare_machines;

  // Id -> pool index, so mapping a decision's job ids back to profiles is
  // O(1) per id. A decision only holds jobs from the prefix Algorithm 1
  // examined (its jobs_scheduled), and the pool only grows at the back, so
  // indexing just that prefix suffices: an id's first occurrence lies in it.
  // First insertion wins, matching a forward find_if when ids repeat.
  std::unordered_map<JobId, std::size_t> pool_index;
  std::size_t indexed = 0;

  for (std::size_t step = 0; step <= partners.size(); ++step) {
    ScheduleDecision decision = schedule(pool, machines);
    if (!decision.empty()) {
      for (; indexed < decision.jobs_scheduled; ++indexed)
        pool_index.emplace(pool[indexed].id, indexed);
      // Score of the whole cluster if this decision replaces the involved
      // groups: involved groups are re-shaped, others stay.
      ScoreFold fold;
      for (std::size_t g = 0; g < groups.size(); ++g)
        if (is_involved[g] == 0) fold.add(terms[g]);
      for (const GroupPlan& plan : decision.groups) {
        shape.machines = plan.machines;
        shape.jobs.clear();
        for (JobId id : plan.jobs) {
          auto it = pool_index.find(id);
          if (it != pool_index.end()) shape.jobs.push_back(pool[it->second].profile);
        }
        fold.add(PerfModel::group_term(shape));
      }
      const double score = fold.score();
      const std::size_t jobs_touched = pool.size();
      // Prefer fewer jobs unless the larger decision is >5 % better.
      const bool better =
          !best ||
          (jobs_touched < best_job_count && score >= best_score * (1.0 - kMinBenefit)) ||
          score > best_score * (1.0 + kMinBenefit);
      if (better) {
        RegroupAction a;
        a.kind = RegroupAction::Kind::kReschedule;
        a.decision = std::move(decision);
        a.groups_involved = involved;
        best = std::move(a);
        best_score = score;
        best_job_count = jobs_touched;
      }
    }
    if (step == partners.size()) break;
    const std::size_t next = partners[step];
    involved.push_back(next);
    is_involved[next] = 1;
    pool.insert(pool.end(), groups[next].jobs.begin(), groups[next].jobs.end());
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
