// Differential test for the job-completion regroup rules (§IV-B4).
//
// A frozen reference implementation — a verbatim copy of regroup_on_finish
// and the Eq. 1–4 scoring it calls, as they stood before the rules were
// optimized — runs against the library on seeded pools that stress every
// branch: single replacements, pairs whose sums sit on the 5 % boundary, and
// the Algorithm 1 fallback over many groups. Actions must match exactly,
// decision hashes included, and when the reference throws the library must
// throw too. Algorithm 1 itself is pinned by test_scheduler_golden.cpp, so
// both sides call the library's core::schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>

#include "golden_fixtures.h"
#include "harmony/regrouper.h"

namespace harmony {
namespace {

// ===========================================================================
// Reference: the original completion rules, kept verbatim apart from the
// metrics counters (pure observation, never read back).

namespace reference {

using core::GroupShape;
using core::JobProfile;
using core::RegroupAction;
using core::RunningGroup;
using core::SchedJob;
using core::ScheduleDecision;
using core::Utilization;

constexpr double kSimilarity = 0.05;
constexpr double kMinBenefit = 0.05;
constexpr double kCpuWeight = 0.7;
constexpr double kPerJobPenalty = 0.002;

double group_iteration_time(const GroupShape& group) {
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

Utilization group_utilization(const GroupShape& group) {
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

Utilization cluster_utilization(std::span<const GroupShape> groups) {
  double total_machines = 0.0;
  Utilization acc;
  for (const GroupShape& g : groups) {
    if (g.jobs.empty() || g.machines == 0) continue;
    const Utilization u = group_utilization(g);
    const auto m = static_cast<double>(g.machines);
    acc.cpu += m * u.cpu;
    acc.net += m * u.net;
    total_machines += m;
  }
  if (total_machines <= 0.0) return {};
  return Utilization{acc.cpu / total_machines, acc.net / total_machines};
}

double score_scalar(const Utilization& u, std::size_t total_jobs, std::size_t total_groups) {
  const double util = kCpuWeight * u.cpu + (1.0 - kCpuWeight) * u.net;
  const double extra_jobs =
      total_jobs > total_groups ? static_cast<double>(total_jobs - total_groups) : 0.0;
  return util - kPerJobPenalty * extra_jobs;
}

double score(std::span<const GroupShape> groups) {
  std::size_t jobs = 0;
  std::size_t nonempty = 0;
  for (const GroupShape& g : groups) {
    jobs += g.jobs.size();
    if (!g.jobs.empty()) ++nonempty;
  }
  return score_scalar(cluster_utilization(groups), jobs, nonempty);
}

bool similar_jobs(const JobProfile& a, const JobProfile& b, std::size_t dop) {
  const double itr_err = relative_error(a.t_itr(dop), b.t_itr(dop));
  const double ratio_err = relative_error(a.comp_ratio(dop), b.comp_ratio(dop));
  return itr_err <= kSimilarity && ratio_err <= kSimilarity;
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

RegroupAction regroup_on_finish(const SchedJob& finished, std::size_t group_index,
                                std::span<const SchedJob> idle,
                                std::span<const RunningGroup> groups,
                                std::size_t spare_machines) {
  RegroupAction action;
  if (group_index >= groups.size()) return action;
  const std::size_t dop = std::max<std::size_t>(1, groups[group_index].machines);

  // (1) One similar job.
  for (const SchedJob& cand : idle) {
    if (reference::similar_jobs(cand.profile, finished.profile, dop)) {
      action.kind = RegroupAction::Kind::kReplace;
      action.group_index = group_index;
      action.replacements = {cand};
      return action;
    }
  }

  // (2) The first pair, in (a, b) index order, whose sums match.
  const double target_itr = finished.profile.t_itr(dop);
  const double target_ratio = finished.profile.comp_ratio(dop);
  std::vector<double> t_cpu(idle.size());
  for (std::size_t i = 0; i < idle.size(); ++i) t_cpu[i] = idle[i].profile.t_cpu(dop);
  for (std::size_t a = 0; a < idle.size(); ++a) {
    for (std::size_t b = a + 1; b < idle.size(); ++b) {
      const double sum_cpu = t_cpu[a] + t_cpu[b];
      const double sum_net = idle[a].profile.t_net + idle[b].profile.t_net;
      const double sum_itr = sum_cpu + sum_net;
      if (!(relative_error(sum_itr, target_itr) <= kSimilarity)) continue;
      const double ratio = sum_itr > 0.0 ? sum_cpu / sum_itr : 0.0;
      if (relative_error(ratio, target_ratio) <= kSimilarity) {
        action.kind = RegroupAction::Kind::kReplace;
        action.group_index = group_index;
        action.replacements = {idle[a], idle[b]};
        return action;
      }
    }
  }

  // (3) Algorithm 1 over progressively more groups, smallest first.
  auto shapes = to_shapes(groups);
  const double current_score = reference::score(shapes);

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
  pool.insert(pool.end(), idle.begin(), idle.end());
  std::size_t machines = groups[group_index].machines + spare_machines;

  std::unordered_map<core::JobId, std::size_t> pool_index;
  std::size_t indexed = 0;
  const auto index_new_pool_jobs = [&] {
    for (; indexed < pool.size(); ++indexed) pool_index.emplace(pool[indexed].id, indexed);
  };
  index_new_pool_jobs();

  for (std::size_t step = 0; step <= partners.size(); ++step) {
    ScheduleDecision decision = core::schedule(pool, machines);
    if (!decision.empty()) {
      std::vector<GroupShape> candidate_shapes;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (std::find(involved.begin(), involved.end(), g) != involved.end()) continue;
        candidate_shapes.push_back(shapes[g]);
      }
      for (const core::GroupPlan& plan : decision.groups) {
        GroupShape s;
        s.machines = plan.machines;
        for (core::JobId id : plan.jobs) {
          auto it = pool_index.find(id);
          if (it != pool_index.end()) s.jobs.push_back(pool[it->second].profile);
        }
        candidate_shapes.push_back(std::move(s));
      }
      const double score = reference::score(candidate_shapes);
      const std::size_t jobs_touched = pool.size();
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

  if (!best || best_score - current_score < kMinBenefit * std::max(current_score, 1e-9))
    return action;
  return *best;
}

}  // namespace reference

// ===========================================================================

struct FinishCase {
  std::string name;
  core::SchedJob finished;
  std::size_t group_index = 0;
  std::vector<core::SchedJob> idle;
  std::vector<core::RunningGroup> groups;
  std::size_t spare = 0;
};

std::optional<core::RegroupAction> run_or_throw(bool library, const FinishCase& c,
                                                std::string& error) {
  try {
    return library ? core::regroup_on_finish(c.finished, c.group_index, c.idle, c.groups,
                                             c.spare)
                   : reference::regroup_on_finish(c.finished, c.group_index, c.idle,
                                                  c.groups, c.spare);
  } catch (const std::exception& e) {
    error = e.what();
    return std::nullopt;
  }
}

std::vector<core::JobId> ids(const std::vector<core::SchedJob>& jobs) {
  std::vector<core::JobId> out;
  for (const core::SchedJob& j : jobs) out.push_back(j.id);
  return out;
}

// How often each outcome of the reference occurred, so a sweep can assert
// that it reached every rule rather than passing vacuously.
struct Outcomes {
  std::size_t single = 0;      // rule (1)
  std::size_t pair = 0;        // rule (2)
  std::size_t reschedule = 0;  // rule (3) applied
  std::size_t none = 0;
  std::size_t threw = 0;
};

void expect_same_action(const FinishCase& c, Outcomes* outcomes = nullptr) {
  std::string want_error;
  std::string got_error;
  const auto want = run_or_throw(false, c, want_error);
  const auto got = run_or_throw(true, c, got_error);
  if (outcomes != nullptr) {
    if (!want) {
      ++outcomes->threw;
    } else if (want->kind == core::RegroupAction::Kind::kReplace) {
      ++(want->replacements.size() == 1 ? outcomes->single : outcomes->pair);
    } else if (want->kind == core::RegroupAction::Kind::kReschedule) {
      ++outcomes->reschedule;
    } else {
      ++outcomes->none;
    }
  }
  ASSERT_EQ(got.has_value(), want.has_value())
      << c.name << ": reference error '" << want_error << "', library error '" << got_error
      << "'";
  if (!want) return;
  EXPECT_EQ(got->kind, want->kind) << c.name;
  EXPECT_EQ(got->group_index, want->group_index) << c.name;
  EXPECT_EQ(ids(got->replacements), ids(want->replacements)) << c.name;
  EXPECT_EQ(golden::hash_decision(got->decision), golden::hash_decision(want->decision))
      << c.name;
  EXPECT_EQ(got->groups_involved, want->groups_involved) << c.name;
}

// Table I profiles (the paper's 80-job catalog), each scaled by its own
// ±3 % noise on COMP work and COMM time, so sums of two jobs land close to
// the 5 % similarity boundary from both sides.
class ProfileSource {
 public:
  explicit ProfileSource(std::uint64_t seed) : rng_(seed) {
    for (const exp::WorkloadSpec& s : exp::make_catalog(2021)) table_.push_back(s.profile());
  }
  core::SchedJob next() {
    const core::JobProfile& base =
        table_[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(table_.size()) - 1))];
    core::JobProfile p = base;
    p.cpu_work *= 1.0 + rng_.uniform(-0.03, 0.03);
    p.t_net *= 1.0 + rng_.uniform(-0.03, 0.03);
    return core::SchedJob{next_id_++, p};
  }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::vector<core::JobProfile> table_;
  core::JobId next_id_ = 0;
};

FinishCase random_case(std::uint64_t seed, std::size_t idle_n, std::size_t group_n,
                       std::size_t spare) {
  ProfileSource src(seed);
  FinishCase c;
  c.name = "seed=" + std::to_string(seed) + " idle=" + std::to_string(idle_n) +
           " groups=" + std::to_string(group_n) + " spare=" + std::to_string(spare);
  c.spare = spare;
  for (std::size_t g = 0; g < group_n; ++g) {
    core::RunningGroup rg;
    rg.machines = static_cast<std::size_t>(src.rng().uniform_int(1, 24));
    const auto members = src.rng().uniform_int(1, 5);
    for (std::int64_t k = 0; k < members; ++k) rg.jobs.push_back(src.next());
    c.groups.push_back(std::move(rg));
  }
  for (std::size_t i = 0; i < idle_n; ++i) c.idle.push_back(src.next());
  c.finished = src.next();
  c.group_index = static_cast<std::size_t>(
      src.rng().uniform_int(0, static_cast<std::int64_t>(group_n) - 1));
  return c;
}

TEST(RegroupOnFinishGolden, MatchesReferenceOnRandomPools) {
  // Pool sizes span empty to a deep batch backlog; group counts span one
  // group to a cluster of hundreds.
  const std::size_t idle_sizes[] = {0, 1, 2, 3, 7, 40, 300, 3000};
  const std::size_t group_counts[] = {1, 2, 5, 30, 260};
  const std::size_t spares[] = {0, 3, 64};
  std::uint64_t seed = 1;
  Outcomes outcomes;
  for (const std::size_t idle_n : idle_sizes)
    for (const std::size_t group_n : group_counts)
      for (const std::size_t spare : spares) {
        // The deepest pools and widest clusters cost the most per case:
        // sample them once, the rest several times.
        const int reps = (idle_n >= 300 || group_n >= 260) ? 1 : 4;
        for (int r = 0; r < reps; ++r)
          expect_same_action(random_case(seed++, idle_n, group_n, spare), &outcomes);
      }
  EXPECT_GT(outcomes.single, 0u);
  EXPECT_GT(outcomes.pair, 0u);
  EXPECT_GT(outcomes.reschedule, 0u);
  EXPECT_GT(outcomes.none, 0u);
}

// Rule (2) with no single similar job: every idle job is half the finished
// job's size, so only pairs can match, and the pool is deep enough that the
// first matching pair sits far from the front.
TEST(RegroupOnFinishGolden, MatchesReferenceOnPairOnlyPools) {
  Outcomes outcomes;
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    ProfileSource src(seed);
    FinishCase c;
    c.name = "pair-only seed=" + std::to_string(seed);
    const std::size_t dop = static_cast<std::size_t>(src.rng().uniform_int(1, 16));
    c.groups.push_back(core::RunningGroup{{src.next(), src.next()}, dop});
    c.groups.push_back(core::RunningGroup{{src.next()}, 4});
    c.finished = src.next();
    const std::size_t n = static_cast<std::size_t>(src.rng().uniform_int(2, 400));
    for (std::size_t i = 0; i < n; ++i) {
      core::JobProfile p = c.finished.profile;
      p.cpu_work *= 0.5 * src.rng().uniform(0.9, 1.1);
      p.t_net *= 0.5 * src.rng().uniform(0.9, 1.1);
      c.idle.push_back(core::SchedJob{static_cast<core::JobId>(1000 + i), p});
    }
    expect_same_action(c, &outcomes);
  }
  EXPECT_EQ(outcomes.pair, 40u);
}

// Rule (2) against deep pools that hold no single similar job: pairs match
// somewhere in the pool or nowhere, and the no-match case then falls through
// to rule (3) after a full search.
TEST(RegroupOnFinishGolden, MatchesReferenceWithoutASimilarJob) {
  Outcomes outcomes;
  const std::size_t pool_sizes[] = {2, 30, 300, 3000};
  std::uint64_t seed = 700;
  for (const std::size_t n : pool_sizes) {
    for (int r = 0; r < 6; ++r, ++seed) {
      ProfileSource src(seed);
      FinishCase c;
      c.name = "no similar job seed=" + std::to_string(seed) + " idle=" + std::to_string(n);
      const std::size_t dop = static_cast<std::size_t>(src.rng().uniform_int(1, 24));
      c.groups.push_back(core::RunningGroup{{src.next()}, dop});
      c.groups.push_back(core::RunningGroup{{src.next(), src.next()}, 6});
      c.finished = src.next();
      c.spare = static_cast<std::size_t>(src.rng().uniform_int(0, 8));
      while (c.idle.size() < n) {
        const core::SchedJob cand = src.next();
        if (!reference::similar_jobs(cand.profile, c.finished.profile, dop))
          c.idle.push_back(cand);
      }
      expect_same_action(c, &outcomes);
    }
  }
  EXPECT_GT(outcomes.pair, 0u);
  EXPECT_GT(outcomes.reschedule + outcomes.none, 0u);
}

core::SchedJob job(core::JobId id, double cpu_work, double t_net) {
  return core::SchedJob{id, core::JobProfile{cpu_work, t_net}};
}

// Hand-built boundary cases at DoP 1, where T_cpu = cpu_work exactly and the
// sums below are exact in binary floating point.
std::vector<FinishCase> crafted_cases() {
  std::vector<FinishCase> cases;
  // Finished job: T_itr = 100, ratio 0.6.
  const core::SchedJob finished = job(1, 60, 40);
  const core::RunningGroup group{{job(2, 30, 30)}, 1};
  const auto with_idle = [&](std::string name, std::vector<core::SchedJob> idle) {
    FinishCase c;
    c.name = std::move(name);
    c.finished = finished;
    c.groups = {group};
    c.idle = std::move(idle);
    cases.push_back(std::move(c));
  };
  // Sums of exactly 0.95·T (95) and 1.05·T (105), both at ratio 0.6.
  with_idle("pair at 0.95 T", {job(10, 30, 20), job(11, 500, 1), job(12, 27, 18)});
  with_idle("pair at 1.05 T", {job(10, 33, 22), job(11, 500, 1), job(12, 30, 20)});
  // Just outside both edges: no pair may match.
  with_idle("pair below 0.95 T", {job(10, 30, 20), job(12, 26.9, 18)});
  with_idle("pair above 1.05 T", {job(10, 33, 22), job(12, 30.1, 20)});
  // Duplicate profiles: several (a, b) pairs match, the first in index
  // order must win — (10, 11), not (10, 13) or (12, 13).
  with_idle("duplicates",
            {job(10, 30, 20), job(11, 30, 20), job(12, 30, 20), job(13, 30, 20)});
  // One a with two matching partners: the smaller b wins.
  with_idle("two partners", {job(10, 30, 20), job(11, 500, 1), job(12, 31, 20),
                             job(13, 30, 20)});
  // A NaN iteration time never matches and must not disturb the search
  // order of the others.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  with_idle("nan idle job", {job(10, nan, 20), job(11, 30, 20), job(12, 500, 1),
                             job(13, 30, 20)});
  with_idle("nan idle job only", {job(10, nan, 20), job(11, 500, 1)});
  // An empty pool and an out-of-range group index.
  with_idle("no idle jobs", {});
  {
    FinishCase c;
    c.name = "group index out of range";
    c.finished = finished;
    c.groups = {group};
    c.group_index = 3;
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(RegroupOnFinishGolden, MatchesReferenceOnCraftedBoundaries) {
  for (const FinishCase& c : crafted_cases()) expect_same_action(c);
}

// The crafted boundary cases do what their names say, so the differential
// test above is not vacuous on them.
TEST(RegroupOnFinishGolden, CraftedBoundariesHitRuleTwo) {
  const auto cases = crafted_cases();
  const auto find = [&](const std::string& name) -> const FinishCase& {
    for (const FinishCase& c : cases)
      if (c.name == name) return c;
    throw std::logic_error("no case " + name);
  };
  const auto replacement_ids = [&](const std::string& name) {
    const FinishCase& c = find(name);
    const core::RegroupAction a =
        core::regroup_on_finish(c.finished, c.group_index, c.idle, c.groups, c.spare);
    return a.kind == core::RegroupAction::Kind::kReplace ? ids(a.replacements)
                                                         : std::vector<core::JobId>{};
  };
  using Ids = std::vector<core::JobId>;
  EXPECT_EQ(replacement_ids("pair at 0.95 T"), (Ids{10, 12}));
  EXPECT_EQ(replacement_ids("pair at 1.05 T"), (Ids{10, 12}));
  EXPECT_EQ(replacement_ids("pair below 0.95 T"), Ids{});
  EXPECT_EQ(replacement_ids("pair above 1.05 T"), Ids{});
  EXPECT_EQ(replacement_ids("duplicates"), (Ids{10, 11}));
  EXPECT_EQ(replacement_ids("two partners"), (Ids{10, 12}));
  EXPECT_EQ(replacement_ids("nan idle job"), (Ids{11, 13}));
}

}  // namespace
}  // namespace harmony
