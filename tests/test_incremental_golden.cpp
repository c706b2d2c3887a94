// Frozen-reference equivalence for core::IncrementalScheduler. Namespace
// `reference` holds a verbatim copy of the scalar scheduler that the two-lane
// join probe kernel and the id-ordered placed-job index replaced (its
// validator and corruption hooks left out, and PerfModel::score_scalar frozen
// beside it), the way tests/test_regrouper_golden.cpp freezes the original
// regroup_on_finish. Identical operation sequences run on both. After every
// operation the join result, every slot bit for bit, the free pool, the score
// and drift bits, pool() and contains() must agree.
//
// The sequences: a seeded churn on 10,000 machines with service-like
// profiles and full repacks whenever drift fires; a 64-machine churn where
// the free pool clamps the balance point and the quality gate declines
// joins; and built groupings with balance ratios at and beside k + 0.5,
// Σt_net = 0, zero-work jobs, NaN and ±inf profiles, 1-5 members, full
// groups, dead slots, 1 to 70 probe candidates and probe windows that wrap
// the cursor. Also pins incremental.join_probes on a recorded service run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/check.h"
#include "common/rng.h"
#include "exp/workload.h"
#include "harmony/incremental.h"
#include "harmony/perf_model.h"
#include "harmony/scheduler.h"
#include "obs/metrics.h"
#include "svc/service.h"
#include "tests/golden_fixtures.h"

namespace harmony {

// ===========================================================================
// Reference implementation, kept verbatim.

namespace reference {

using core::GroupPlan;
using core::JobId;
using core::kMaxJobsPerGroup;
using core::ScheduleDecision;
using core::SchedJob;
using core::Utilization;

// PerfModel::score_scalar as the reference scheduler evaluated it.
struct PerfModel {
  static double score_scalar(const Utilization& u, std::size_t total_jobs,
                             std::size_t total_groups) noexcept {
    const double util = core::kCpuWeight * u.cpu + (1.0 - core::kCpuWeight) * u.net;
    const double extra_jobs =
        total_jobs > total_groups ? static_cast<double>(total_jobs - total_groups) : 0.0;
    return util - core::kPerJobPenalty * extra_jobs;
  }
};

// std::llround (halves away from zero) without the out-of-line libm call
// that a join probe would otherwise make. Below 2^52 the fraction
// x - trunc(x) is exact and from 2^52 up every double is an integer, so on
// [0, 2^62) this is llround(x); anything else goes to the library.
[[gnu::always_inline]] inline long long round_half_away(double x) {
  if (!(x >= 0.0 && x < 0x1p62)) return std::llround(x);
  auto whole = static_cast<long long>(x);
  if (x - static_cast<double>(whole) >= 0.5) ++whole;
  return whole;
}

// Balance-point DoP for aggregate work: Σ T_cpu(m) == Σ t_net at
// m = sum_cpu_work / sum_t_net, clamped to [1, limit] (limit for pure-CPU
// work). The machine count full Algorithm 1's allocation step converges to.
// Evaluated on every join probe, so it is forced inline there.
[[gnu::always_inline]] inline std::size_t balanced_dop(double sum_cpu_work, double sum_t_net,
                                                       std::size_t limit) {
  if (limit == 0) return 0;
  if (sum_t_net <= 0.0) return limit;
  const auto balance = static_cast<std::size_t>(round_half_away(sum_cpu_work / sum_t_net));
  return std::clamp<std::size_t>(balance, 1, limit);
}

// Groups hold at most kMaxJobsPerGroup members (scheduler.h), whether joined
// or adopted from a core::repack (validated).
class IncrementalScheduler {
 public:
  // One live job group (exposed read-only for validators and reporting).
  struct Group {
    std::vector<SchedJob> jobs;
    std::size_t machines = 0;
    bool live = false;
    // Cached aggregates over `jobs` (recomputed on every membership change —
    // groups are small — so they carry no incremental FP error).
    double sum_cpu_work = 0.0;  // Σ cpu_work (DoP-invariant machine-seconds)
    double sum_t_net = 0.0;     // Σ t_net
    double max_t_itr = 0.0;     // max_j T_itr(machines)
    // This group's terms in the cluster-utilization accumulators:
    // machines * group_utilization().{cpu,net}.
    double cpu_contrib = 0.0;
    double net_contrib = 0.0;
  };

  // `drift_threshold` is the full Algorithm-1 re-run trigger: the relative
  // score drop (or free-pool growth fraction) since the last adopt() above
  // which the caller should reschedule from scratch.
  IncrementalScheduler(double drift_threshold, std::size_t total_machines);

  // Rebuilds the grouping from a full Algorithm-1 decision over `pool` and
  // records the new drift baseline. Pool jobs the decision did not place are
  // dropped from the state — the caller re-joins or queues them.
  void adopt(const ScheduleDecision& decision, std::span<const SchedJob> pool);

  struct JoinResult {
    std::size_t group = 0;       // index into groups()
    bool created_group = false;  // opened a fresh group from the free pool
    double group_t_itr = 0.0;    // modelled iteration time after the join
  };

  // Places one job with bounded work. Returns nullopt when no live group has
  // a free member slot and the free pool is empty, or when the best
  // placement would land the modelled score below the drift floor
  // (peak - |peak| x drift_threshold) — the incremental analog of Algorithm 1
  // parking queue-tail jobs once the score stops improving. The job must not
  // already be placed.
  std::optional<JoinResult> join(const SchedJob& job);

  // Removes a job; emptied groups dissolve back into the free pool. Returns
  // false if the job is not placed.
  bool leave(JobId id);

  // Modelled cluster score of the current grouping (PerfModel::score
  // semantics: machine-weighted utilization over allocated machines, minus
  // the per-job penalty).
  double current_score() const;
  // Re-records the drift baseline at the current state. adopt() does this
  // implicitly; the service calls it when drift fires on an empty grouping,
  // so the trigger disarms.
  void rebaseline();
  // Decay since the last rebaseline: max of the score drop from the peak
  // score observed since then, relative to |peak|, and the net free-pool
  // growth as a fraction of the cluster. The per-job penalty can drive the
  // peak below zero under overload; a drop from it still counts. Live from construction — a cold-started service that
  // greedily packs joins without ever adopting a full decision still sees its
  // decay and escalates (the peak tracks the best grouping ever held, so a
  // slide from it registers even with no adopt()-quality baseline to cite).
  double drift() const;
  bool needs_full_reschedule() const { return drift() > drift_threshold_; }

  std::size_t total_machines() const noexcept { return total_machines_; }
  std::size_t free_machines() const noexcept { return free_machines_; }
  std::size_t running_jobs() const noexcept { return total_jobs_; }
  std::size_t live_group_count() const noexcept { return nonempty_groups_; }
  const std::vector<Group>& groups() const noexcept { return groups_; }
  bool contains(JobId id) const { return job_group_.count(id) != 0; }

  // Modelled iteration time of a live group (Eq. 1 off the cached sums).
  double group_iteration_time(std::size_t group) const;

  // All placed jobs in id order — the queue order a full Algorithm-1 re-run
  // expects (service ids are assigned in arrival order).
  std::vector<SchedJob> pool() const;

 private:
  // Recomputes a group's aggregates + contributions from its member list and
  // swaps the new contributions into the cluster accumulators.
  void refresh_group(Group& g);
  // Exact accumulator recompute; called from adopt() and periodically (every
  // kRebuildEvery mutations) so add/subtract error cannot accumulate over an
  // unbounded service run.
  void rebuild_accumulators();
  void maybe_rebuild();
  double score_with(double acc_cpu, double acc_net, double alloc_machines,
                    std::size_t jobs, std::size_t groups) const;
  void note_peak();
  std::size_t acquire_slot();
  // Re-sizes a live group to balanced_dop over its members, moving machines
  // to/from the free pool and refreshing its aggregates.
  void resize_to_balance(Group& g);

  static constexpr std::uint64_t kRebuildEvery = 4096;
  // Live groups examined per join. Bounds the per-event work; the drift
  // trigger repairs whatever a narrow window cost in placement quality.
  static constexpr std::size_t kJoinProbeLimit = 64;

  double drift_threshold_;
  std::size_t total_machines_;
  std::size_t free_machines_;

  std::vector<Group> groups_;             // slots; dead ones on the free list
  std::vector<std::size_t> free_slots_;
  std::unordered_map<JobId, std::uint32_t> job_group_;
  std::size_t cursor_ = 0;  // rotating probe start for join()

  // Cluster-utilization accumulators over live groups (PerfModel::
  // cluster_utilization's sums, maintained incrementally).
  double acc_cpu_ = 0.0;
  double acc_net_ = 0.0;
  double alloc_machines_ = 0.0;
  std::size_t total_jobs_ = 0;
  std::size_t nonempty_groups_ = 0;
  std::uint64_t mutations_ = 0;

  double peak_score_ = 0.0;  // best score since the last rebaseline
  std::size_t baseline_free_ = 0;
};


namespace {

// Utilization contributions of a group shape described by its aggregates.
struct Contrib {
  double cpu = 0.0;
  double net = 0.0;
  double t_itr = 0.0;
};

// Evaluated on every join probe, so it is forced inline there.
[[gnu::always_inline]] inline Contrib contributions(double sum_cpu_work, double sum_t_net,
                                                    double max_t_itr, std::size_t machines) {
  const double m = static_cast<double>(machines);
  const double sum_cpu = sum_cpu_work / m;
  const double t_itr = std::max({sum_cpu, sum_t_net, max_t_itr});
  if (t_itr <= 0.0) return {};
  return Contrib{m * sum_cpu / t_itr, m * sum_t_net / t_itr, t_itr};
}

}  // namespace

IncrementalScheduler::IncrementalScheduler(double drift_threshold, std::size_t total_machines)
    : drift_threshold_(drift_threshold),
      total_machines_(total_machines),
      free_machines_(total_machines),
      baseline_free_(total_machines) {
  HARMONY_CHECK(total_machines > 0) << "IncrementalScheduler needs machines";
}

double IncrementalScheduler::score_with(double acc_cpu, double acc_net,
                                        double alloc_machines, std::size_t jobs,
                                        std::size_t groups) const {
  if (alloc_machines <= 0.0) return 0.0;
  return PerfModel::score_scalar(
      Utilization{acc_cpu / alloc_machines, acc_net / alloc_machines}, jobs, groups);
}

double IncrementalScheduler::current_score() const {
  return score_with(acc_cpu_, acc_net_, alloc_machines_, total_jobs_, nonempty_groups_);
}

void IncrementalScheduler::rebaseline() {
  peak_score_ = current_score();
  baseline_free_ = free_machines_;
}

void IncrementalScheduler::note_peak() {
  peak_score_ = std::max(peak_score_, current_score());
}

double IncrementalScheduler::drift() const {
  double drift = 0.0;
  if (peak_score_ != 0.0) {
    drift = std::max(drift, (peak_score_ - current_score()) / std::abs(peak_score_));
  }
  if (free_machines_ > baseline_free_) {
    drift = std::max(drift, static_cast<double>(free_machines_ - baseline_free_) /
                                static_cast<double>(total_machines_));
  }
  return std::max(drift, 0.0);
}

double IncrementalScheduler::group_iteration_time(std::size_t group) const {
  HARMONY_CHECK(group < groups_.size() && groups_[group].live)
      << check::group(group) << "iteration time of a dead group";
  const Group& g = groups_[group];
  return contributions(g.sum_cpu_work, g.sum_t_net, g.max_t_itr, g.machines).t_itr;
}

void IncrementalScheduler::refresh_group(Group& g) {
  acc_cpu_ -= g.cpu_contrib;
  acc_net_ -= g.net_contrib;
  g.sum_cpu_work = 0.0;
  g.sum_t_net = 0.0;
  g.max_t_itr = 0.0;
  for (const SchedJob& j : g.jobs) {
    g.sum_cpu_work += j.profile.cpu_work;
    g.sum_t_net += j.profile.t_net;
    g.max_t_itr = std::max(g.max_t_itr, j.profile.t_itr(g.machines));
  }
  const Contrib c = contributions(g.sum_cpu_work, g.sum_t_net, g.max_t_itr, g.machines);
  g.cpu_contrib = c.cpu;
  g.net_contrib = c.net;
  acc_cpu_ += g.cpu_contrib;
  acc_net_ += g.net_contrib;
}

void IncrementalScheduler::rebuild_accumulators() {
  acc_cpu_ = 0.0;
  acc_net_ = 0.0;
  alloc_machines_ = 0.0;
  total_jobs_ = 0;
  nonempty_groups_ = 0;
  for (Group& g : groups_) {
    if (!g.live) continue;
    acc_cpu_ += g.cpu_contrib;
    acc_net_ += g.net_contrib;
    alloc_machines_ += static_cast<double>(g.machines);
    total_jobs_ += g.jobs.size();
    ++nonempty_groups_;
  }
}

void IncrementalScheduler::maybe_rebuild() {
  if (++mutations_ % kRebuildEvery == 0) rebuild_accumulators();
}

std::size_t IncrementalScheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  groups_.emplace_back();
  return groups_.size() - 1;
}

void IncrementalScheduler::resize_to_balance(Group& g) {
  const std::size_t target =
      balanced_dop(g.sum_cpu_work, g.sum_t_net, g.machines + free_machines_);
  if (target == g.machines) return;
  free_machines_ += g.machines;
  alloc_machines_ -= static_cast<double>(g.machines);
  g.machines = target;
  free_machines_ -= target;
  alloc_machines_ += static_cast<double>(target);
  refresh_group(g);
}

void IncrementalScheduler::adopt(const ScheduleDecision& decision,
                                 std::span<const SchedJob> pool) {
  // The decision is the authoritative grouping: it fills slots 0..k-1 in plan
  // order, exactly as a freshly built scheduler would, but the slots, their
  // member storage and the job index's entries are reused from the previous
  // grouping.
  HARMONY_CHECK(std::adjacent_find(pool.begin(), pool.end(),
                                   [](const SchedJob& a, const SchedJob& b) {
                                     return a.id >= b.id;
                                   }) == pool.end())
      << "adopt needs the pool in strictly increasing id order";
  free_slots_.clear();
  cursor_ = 0;
  free_machines_ = total_machines_;
  acc_cpu_ = acc_net_ = 0.0;

  std::size_t slot = 0;
  std::size_t placed = 0;
  for (const GroupPlan& plan : decision.groups) {
    if (plan.jobs.empty() || plan.machines == 0) continue;
    HARMONY_CHECK(plan.machines <= free_machines_)
        << "decision over-allocates: " << plan.machines << " machines wanted, "
        << free_machines_ << " free";
    if (slot == groups_.size()) groups_.emplace_back();
    Group& g = groups_[slot];
    g.jobs.clear();
    g.machines = plan.machines;
    g.live = true;
    g.cpu_contrib = g.net_contrib = 0.0;
    for (JobId id : plan.jobs) {
      const auto it = std::lower_bound(
          pool.begin(), pool.end(), id,
          [](const SchedJob& j, JobId want) { return j.id < want; });
      HARMONY_CHECK(it != pool.end() && it->id == id)
          << check::job(id) << "decision places a job missing from the pool";
      g.jobs.push_back(*it);
      job_group_.insert_or_assign(id, static_cast<std::uint32_t>(slot));
      ++placed;
    }
    free_machines_ -= plan.machines;
    refresh_group(g);
    ++slot;
  }
  groups_.resize(slot);
  // Every placed id now maps to its new slot, most by overwriting their old
  // entry. Any further entries belong to jobs the decision dropped, so the
  // index is rebuilt from the slots.
  if (job_group_.size() != placed) {
    job_group_.clear();
    for (std::size_t s = 0; s < groups_.size(); ++s)
      for (const SchedJob& j : groups_[s].jobs)
        job_group_[j.id] = static_cast<std::uint32_t>(s);
  }
  rebuild_accumulators();
  rebaseline();
}

std::optional<IncrementalScheduler::JoinResult> IncrementalScheduler::join(
    const SchedJob& job) {
  HARMONY_CHECK(job_group_.count(job.id) == 0)
      << check::job(job.id) << "join of an already-placed job";

  // Option A: the best of up to kJoinProbeLimit live groups with a free
  // member slot, by modelled score delta. Every candidate is evaluated
  // re-sized to the combined balance point (the allocation full Algorithm 1
  // would give that membership), so a probe recomputes max T_itr over the
  // members at the candidate DoP — O(group members) off cached aggregates.
  // The rotating cursor spreads successive joins so a bounded window still
  // covers the whole cluster over time.
  // The cursor stays inside [0, slots) (see validate()), so stepping the
  // slot index with a wrap visits (cursor_ + step) % slots without a divide.
  const std::size_t slots = groups_.size();
  std::size_t best_group = slots;
  double best_score = 0.0;
  if (slots > 0) {
    std::size_t probed = 0;
    std::size_t idx = cursor_;
    for (std::size_t step = 0; step < slots && probed < kJoinProbeLimit;
         ++step, idx = idx + 1 == slots ? 0 : idx + 1) {
      const Group& g = groups_[idx];
      if (!g.live || g.jobs.size() >= kMaxJobsPerGroup) continue;
      ++probed;
      const double sum_cpu = g.sum_cpu_work + job.profile.cpu_work;
      const double sum_net = g.sum_t_net + job.profile.t_net;
      const std::size_t dop = balanced_dop(sum_cpu, sum_net, g.machines + free_machines_);
      double max_itr = job.profile.t_itr(dop);
      for (const SchedJob& j : g.jobs) max_itr = std::max(max_itr, j.profile.t_itr(dop));
      const Contrib c = contributions(sum_cpu, sum_net, max_itr, dop);
      const double score = score_with(
          acc_cpu_ - g.cpu_contrib + c.cpu, acc_net_ - g.net_contrib + c.net,
          alloc_machines_ + static_cast<double>(dop) - static_cast<double>(g.machines),
          total_jobs_ + 1, nonempty_groups_);
      if (best_group == slots || score > best_score) {
        best_group = idx;
        best_score = score;
      }
    }
    cursor_ = cursor_ + 1 == slots ? 0 : cursor_ + 1;
  }

  // Option B: open a fresh group at the job's balance-point DoP.
  std::size_t new_dop = balanced_dop(job.profile.cpu_work, job.profile.t_net,
                                     free_machines_);
  double new_score = 0.0;
  double new_t_itr = 0.0;
  if (new_dop > 0) {
    const Contrib c = contributions(job.profile.cpu_work, job.profile.t_net,
                                    job.profile.t_itr(new_dop), new_dop);
    new_score = score_with(acc_cpu_ + c.cpu, acc_net_ + c.net,
                           alloc_machines_ + static_cast<double>(new_dop),
                           total_jobs_ + 1, nonempty_groups_ + 1);
    new_t_itr = c.t_itr;
  }

  const bool have_existing = best_group != slots;
  if (!have_existing && new_dop == 0) return std::nullopt;

  // Ties go to the existing group: fewer groups, no machines drawn from the
  // free pool.
  const bool take_existing = have_existing && (new_dop == 0 || best_score >= new_score);

  // Admission by utilization — the incremental analog of Algorithm 1's
  // growth-loop stop. A placement that would land the modelled score below
  // the drift floor (peak - |peak| x threshold) is declined and the caller
  // queues the job, exactly as the full scheduler parks queue-tail jobs once
  // the score stops improving. The floor is strict — no "but it improves the
  // current score" escape — or admission would ratchet: every small
  // improvement on an already-decayed score would pass, and the placed set
  // would grow far beyond what full Algorithm 1 would ever co-schedule. A
  // state stuck under the floor instead shows drift > threshold and is
  // repaired by the full-reschedule escalation.
  const double chosen_score = take_existing ? best_score : new_score;
  const double score_floor = peak_score_ >= 0.0 ? peak_score_ * (1.0 - drift_threshold_)
                                                : peak_score_ * (1.0 + drift_threshold_);
  if (chosen_score < score_floor) return std::nullopt;

  if (take_existing) {
    Group& g = groups_[best_group];
    g.jobs.push_back(job);
    job_group_[job.id] = static_cast<std::uint32_t>(best_group);
    ++total_jobs_;
    refresh_group(g);
    resize_to_balance(g);
    maybe_rebuild();
    note_peak();
    return JoinResult{best_group, false, group_iteration_time(best_group)};
  }

  const std::size_t slot = acquire_slot();
  Group& g = groups_[slot];
  g.jobs.assign(1, job);
  g.machines = new_dop;
  g.live = true;
  g.cpu_contrib = g.net_contrib = 0.0;
  free_machines_ -= new_dop;
  alloc_machines_ += static_cast<double>(new_dop);
  ++nonempty_groups_;
  ++total_jobs_;
  job_group_[job.id] = static_cast<std::uint32_t>(slot);
  refresh_group(g);
  maybe_rebuild();
  note_peak();
  return JoinResult{slot, true, new_t_itr};
}

bool IncrementalScheduler::leave(JobId id) {
  const auto it = job_group_.find(id);
  if (it == job_group_.end()) return false;
  Group& g = groups_[it->second];
  const std::size_t slot = it->second;
  job_group_.erase(it);

  const auto member = std::find_if(g.jobs.begin(), g.jobs.end(),
                                   [id](const SchedJob& j) { return j.id == id; });
  HARMONY_CHECK(member != g.jobs.end())
      << check::job(id) << check::group(slot) << "index points at a group without the job";
  g.jobs.erase(member);
  --total_jobs_;

  if (g.jobs.empty()) {
    acc_cpu_ -= g.cpu_contrib;
    acc_net_ -= g.net_contrib;
    alloc_machines_ -= static_cast<double>(g.machines);
    --nonempty_groups_;
    free_machines_ += g.machines;
    g.live = false;
    g.machines = 0;
    g.cpu_contrib = g.net_contrib = 0.0;
    g.sum_cpu_work = g.sum_t_net = g.max_t_itr = 0.0;
    free_slots_.push_back(slot);
  } else {
    refresh_group(g);
    resize_to_balance(g);
  }
  maybe_rebuild();
  note_peak();
  // A fully drained cluster has no grouping left to preserve: drop the stale
  // peak so the quality gate cannot decline the next cold-start joins.
  if (total_jobs_ == 0) rebaseline();
  return true;
}

std::vector<SchedJob> IncrementalScheduler::pool() const {
  std::vector<SchedJob> out;
  out.reserve(total_jobs_);
  for (const Group& g : groups_) {
    if (!g.live) continue;
    out.insert(out.end(), g.jobs.begin(), g.jobs.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SchedJob& a, const SchedJob& b) { return a.id < b.id; });
  return out;
}

}  // namespace reference

// ===========================================================================

namespace {

using core::JobId;
using core::JobProfile;
using core::SchedJob;

constexpr double kDriftThreshold = 0.10;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

bool same_job(const SchedJob& a, const SchedJob& b) {
  return a.id == b.id && bits(a.profile.cpu_work) == bits(b.profile.cpu_work) &&
         bits(a.profile.t_net) == bits(b.profile.t_net);
}

// The scheduler under test and the reference, driven by the same operations.
class Twin {
 public:
  Twin(double drift_threshold, std::size_t machines)
      : fast_(drift_threshold, machines), ref_(drift_threshold, machines) {}

  const core::IncrementalScheduler& fast() const { return fast_; }
  std::size_t declined() const { return declined_; }

  ::testing::AssertionResult join(const SchedJob& job) {
    const auto a = fast_.join(job);
    const auto b = ref_.join(job);
    note(job.id);
    if (a.has_value() != b.has_value())
      return ::testing::AssertionFailure() << "job " << job.id << " placed by one side only";
    if (!a) {
      ++declined_;
    } else if (a->group != b->group || a->created_group != b->created_group ||
               bits(a->group_t_itr) != bits(b->group_t_itr)) {
      return ::testing::AssertionFailure()
             << "job " << job.id << " joins group " << a->group << (a->created_group ? "*" : "")
             << " t_itr " << a->group_t_itr << ", reference group " << b->group
             << (b->created_group ? "*" : "") << " t_itr " << b->group_t_itr;
    }
    return same_state();
  }

  ::testing::AssertionResult leave(JobId id) {
    const bool a = fast_.leave(id);
    const bool b = ref_.leave(id);
    note(id);
    if (a != b) return ::testing::AssertionFailure() << "leave of job " << id << " differs";
    return same_state();
  }

  ::testing::AssertionResult adopt(const core::ScheduleDecision& decision,
                                   std::span<const SchedJob> pool) {
    fast_.adopt(decision, pool);
    ref_.adopt(decision, pool);
    for (const SchedJob& j : pool) note(j.id);
    return same_state();
  }

  // Every slot bit for bit, the counts, score, drift, pool() and contains()
  // over the placed jobs and the recently touched ids.
  ::testing::AssertionResult same_state() const {
    const auto& ga = fast_.groups();
    const auto& gb = ref_.groups();
    if (ga.size() != gb.size())
      return ::testing::AssertionFailure() << ga.size() << " slots vs " << gb.size();
    for (std::size_t i = 0; i < ga.size(); ++i) {
      const auto& a = ga[i];
      const auto& b = gb[i];
      bool same = a.jobs.size() == b.jobs.size() && a.machines == b.machines &&
                  a.live == b.live && bits(a.sum_cpu_work) == bits(b.sum_cpu_work) &&
                  bits(a.sum_t_net) == bits(b.sum_t_net) &&
                  bits(a.max_t_itr) == bits(b.max_t_itr) &&
                  bits(a.cpu_contrib) == bits(b.cpu_contrib) &&
                  bits(a.net_contrib) == bits(b.net_contrib);
      for (std::size_t k = 0; same && k < a.jobs.size(); ++k)
        same = same_job(a.jobs[k], b.jobs[k]);
      if (!same)
        return ::testing::AssertionFailure()
               << "slot " << i << ": " << a.jobs.size() << " members on " << a.machines
               << " machines vs " << b.jobs.size() << " on " << b.machines;
    }
    if (fast_.free_machines() != ref_.free_machines() ||
        fast_.running_jobs() != ref_.running_jobs() ||
        fast_.live_group_count() != ref_.live_group_count())
      return ::testing::AssertionFailure()
             << "counts: free " << fast_.free_machines() << " vs " << ref_.free_machines()
             << ", jobs " << fast_.running_jobs() << " vs " << ref_.running_jobs();
    if (bits(fast_.current_score()) != bits(ref_.current_score()) ||
        bits(fast_.drift()) != bits(ref_.drift()))
      return ::testing::AssertionFailure()
             << "score " << fast_.current_score() << " vs " << ref_.current_score()
             << ", drift " << fast_.drift() << " vs " << ref_.drift();
    const auto pa = fast_.pool();
    const auto pb = ref_.pool();
    if (pa.size() != pb.size() || !std::equal(pa.begin(), pa.end(), pb.begin(), same_job))
      return ::testing::AssertionFailure() << "pool of " << pa.size() << " vs " << pb.size();
    for (const SchedJob& j : pa)
      if (!fast_.contains(j.id) || !ref_.contains(j.id))
        return ::testing::AssertionFailure() << "placed job " << j.id << " not contained";
    for (const JobId id : recent_)
      if (fast_.contains(id) != ref_.contains(id))
        return ::testing::AssertionFailure() << "contains(" << id << ") differs";
    return ::testing::AssertionSuccess();
  }

 private:
  void note(JobId id) {
    recent_.push_back(id);
    if (recent_.size() > 256) recent_.pop_front();
  }

  core::IncrementalScheduler fast_;
  reference::IncrementalScheduler ref_;
  std::deque<JobId> recent_;
  std::size_t declined_ = 0;
};

// Profiles drawn as Service::make_pending draws them: the catalog profile
// with 10% lognormal jitter on both terms.
class JobSource {
 public:
  explicit JobSource(std::uint64_t seed) : rng_(seed) {}
  SchedJob next() {
    JobProfile profile = catalog_[next_id_ % catalog_.size()].profile();
    profile.cpu_work *= rng_.lognormal_noise(0.10);
    profile.t_net *= rng_.lognormal_noise(0.10);
    return SchedJob{next_id_++, profile};
  }
  Rng& rng() { return rng_; }

 private:
  std::vector<exp::WorkloadSpec> catalog_ = exp::make_catalog();
  Rng rng_;
  JobId next_id_ = 0;
};

struct ChurnCounts {
  std::size_t adopts = 0;
  std::size_t leaves = 0;
  std::size_t clamped = 0;  // joins that left no machine free
};

// Seeded joins and leaves; the population hovers around `target` jobs. A
// full reschedule (core::repack, or core::schedule when `drop` is set on
// every other one, which may leave jobs out) runs whenever drift fires.
ChurnCounts churn(Twin& twin, JobSource& src, std::size_t machines, int ops,
                  std::size_t target, bool drop) {
  ChurnCounts counts;
  Rng& rng = src.rng();
  for (int op = 0; op < ops; ++op) {
    const auto& inc = twin.fast();
    if (inc.needs_full_reschedule() && inc.running_jobs() > 0) {
      const auto pool = inc.pool();
      const bool full = !drop || counts.adopts % 2 == 0;
      const core::ScheduleDecision decision =
          full ? core::repack(pool, machines) : core::schedule(pool, machines);
      ++counts.adopts;
      EXPECT_TRUE(twin.adopt(decision, pool)) << "op " << op << " (adopt)";
      if (::testing::Test::HasFailure()) return counts;
    }
    const double join_probability = inc.running_jobs() < target ? 0.6 : 0.4;
    if (inc.running_jobs() == 0 || rng.bernoulli(join_probability)) {
      EXPECT_TRUE(twin.join(src.next())) << "op " << op << " (join)";
      if (inc.free_machines() == 0) ++counts.clamped;
    } else {
      const auto pool = inc.pool();
      const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1);
      EXPECT_TRUE(twin.leave(pool[static_cast<std::size_t>(pick)].id)) << "op " << op << " (leave)";
      ++counts.leaves;
    }
    if (::testing::Test::HasFailure()) return counts;
  }
  return counts;
}

TEST(IncrementalGolden, ServiceLikeChurnOn10000Machines) {
  Twin twin(kDriftThreshold, 10000);
  JobSource src(1);
  const ChurnCounts counts = churn(twin, src, 10000, 20000, 150, false);
  EXPECT_GT(counts.adopts, 10u);
  EXPECT_GT(counts.leaves, 5000u);
  EXPECT_GT(twin.fast().groups().size(), 64u) << "the probe window never filled";
}

TEST(IncrementalGolden, ClampedAndDeclinedChurnOn64Machines) {
  Twin twin(kDriftThreshold, 64);
  JobSource src(7);
  const ChurnCounts counts = churn(twin, src, 64, 6000, 24, true);
  EXPECT_GT(counts.adopts, 10u);
  EXPECT_GT(counts.clamped, 0u) << "no join took the last free machine";
  EXPECT_GT(twin.declined(), 0u) << "the quality gate never declined a join";
}

// A grouping built from member profiles: group g holds `members[g]` on
// `machines[g]` machines (an empty member list leaves a dead slot once its
// placeholder leaves). Ids count up from `first_id`.
struct Built {
  std::vector<SchedJob> pool;
  core::ScheduleDecision decision;
  std::vector<JobId> placeholders;
};

Built build(const std::vector<std::vector<JobProfile>>& members,
            const std::vector<std::size_t>& machines, JobId first_id) {
  Built b;
  JobId id = first_id;
  for (std::size_t g = 0; g < members.size(); ++g) {
    core::GroupPlan plan;
    plan.machines = machines[g];
    if (members[g].empty()) {
      b.pool.push_back(SchedJob{id, JobProfile{100.0, 2.0}});
      b.placeholders.push_back(id);
      plan.jobs.push_back(id++);
    }
    for (const JobProfile& p : members[g]) {
      b.pool.push_back(SchedJob{id, p});
      plan.jobs.push_back(id++);
    }
    b.decision.groups.push_back(std::move(plan));
  }
  return b;
}

// Adopts the built grouping, then joins each joiner in turn; a placed joiner
// leaves again when `keep` is false, so every joiner probes the same groups.
void probe_each(Twin& twin, const Built& built, const std::vector<JobProfile>& joiners,
                JobId first_joiner_id, bool keep, const std::string& where) {
  ASSERT_TRUE(twin.adopt(built.decision, built.pool)) << where;
  for (const JobId id : built.placeholders) ASSERT_TRUE(twin.leave(id)) << where;
  JobId id = first_joiner_id;
  for (const JobProfile& p : joiners) {
    const SchedJob job{id++, p};
    ASSERT_TRUE(twin.join(job)) << where << ", joiner " << job.id;
    if (!keep && twin.fast().contains(job.id)) {
      ASSERT_TRUE(twin.leave(job.id)) << where;
    }
  }
}

// Balance ratios Σcpu / Σt_net at k + 0.5 exactly, one ulp either side, and
// at k: a zero-work joiner (t_net 1) into a one-member group (cpu 2x, t_net 1)
// puts the ratio at exactly x. Free pools from none to ample move the clamp
// across the rounded value.
TEST(IncrementalGolden, BalanceRatiosAtAndBesideHalves) {
  std::vector<double> ratios;
  for (const double k : {0.0, 1.0, 2.0, 7.0, 40.0, 511.0}) {
    const double half = k + 0.5;
    ratios.insert(ratios.end(), {half, std::nextafter(half, 0.0),
                                 std::nextafter(half, 1e9), k + 1.0});
  }
  for (const std::size_t spare : {0u, 1u, 3u, 45u, 5000u}) {
    std::vector<std::vector<JobProfile>> members;
    std::vector<std::size_t> machines;
    for (const double x : ratios) {
      members.push_back({JobProfile{2.0 * x, 1.0}});
      machines.push_back(1);
    }
    const std::size_t total = members.size() + spare;
    Twin twin(kDriftThreshold, total);
    const Built built = build(members, machines, 0);
    std::vector<JobProfile> joiners(8, JobProfile{0.0, 1.0});
    joiners.push_back(JobProfile{1.0, 1.0});
    joiners.push_back(JobProfile{41.0, 1.0});
    probe_each(twin, built, joiners, 1000, false, "spare " + std::to_string(spare));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Degenerate profiles in members and joiners: Σt_net = 0, zero work, NaN,
// ±inf and negative work. Each seeded trial puts one degenerate group among
// 1-5 healthy ones on a random free pool, and joins healthy and degenerate
// jobs, so a guard that computed a different score would flip some pick.
TEST(IncrementalGolden, DegenerateProfiles) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<JobProfile> odd = {
      {0.0, 0.0},  {50.0, 0.0}, {0.0, 3.0},   {nan, 2.0},   {30.0, nan}, {inf, 2.0},
      {30.0, inf}, {-inf, 2.0}, {30.0, -inf}, {-40.0, 2.0}, {-0.6, 1.0}, {-0.4, 1.0},
      {inf, inf},  {nan, nan},  {-30.0, 0.0}, {0.0, -2.0}};
  JobSource src(11);
  Rng& rng = src.rng();
  for (std::size_t d = 0; d < odd.size(); ++d) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<std::vector<JobProfile>> members;
      std::vector<std::size_t> machines;
      const auto healthy = static_cast<std::size_t>(rng.uniform_int(1, 5));
      const auto at = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(healthy)));
      for (std::size_t g = 0; g <= healthy; ++g) {
        if (g == at) {
          members.push_back(trial % 2 == 0 ? std::vector<JobProfile>{odd[d]}
                                           : std::vector<JobProfile>{src.next().profile, odd[d]});
        } else {
          members.push_back({src.next().profile});
          if (rng.bernoulli(0.3)) members.back().push_back(src.next().profile);
        }
        machines.push_back(1 + static_cast<std::size_t>(rng.uniform_int(0, 30)));
      }
      std::size_t used = 0;
      for (const std::size_t m : machines) used += m;
      Twin twin(kDriftThreshold, used + static_cast<std::size_t>(rng.uniform_int(0, 60)));
      const Built built = build(members, machines, 0);
      const std::vector<JobProfile> joiners = {src.next().profile, odd[d],
                                               odd[(d + static_cast<std::size_t>(trial)) % odd.size()],
                                               src.next().profile};
      probe_each(twin, built, joiners, 1000, trial % 3 == 0,
                 "profile " + std::to_string(d) + ", trial " + std::to_string(trial));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Probe windows of 1, 2, 3, 63, 64, 65 and 70 candidates among groups of
// 1-5 members, with full (6-member) groups and dead slots mixed in, twin
// groups that tie exactly, and enough joins that the window wraps the
// cursor. Seeded profiles make the last candidate of an odd window win
// somewhere in the sweep.
TEST(IncrementalGolden, ProbeWindowsOfEveryShape) {
  for (const std::size_t eligible : {1u, 2u, 3u, 63u, 64u, 65u, 70u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      JobSource src(100 * eligible + seed);
      Rng& rng = src.rng();
      std::vector<std::vector<JobProfile>> members;
      std::vector<std::size_t> machines;
      std::size_t made = 0;
      while (made < eligible) {
        const double u = rng.uniform(0.0, 1.0);
        const std::size_t width = u < 0.1    ? core::kMaxJobsPerGroup
                                  : u < 0.15 ? 0
                                  : u < 0.6  ? 1
                                             : 1 + static_cast<std::size_t>(rng.uniform_int(1, 4));
        if (u > 0.9 && !members.empty() && !members.back().empty() &&
            members.back().size() < core::kMaxJobsPerGroup) {
          // An exact twin of the previous group: the two probes tie.
          members.push_back(members.back());
          machines.push_back(machines.back());
          ++made;
          continue;
        }
        std::vector<JobProfile> group;
        for (std::size_t k = 0; k < width; ++k) group.push_back(src.next().profile);
        if (width > 0 && width < core::kMaxJobsPerGroup) ++made;
        machines.push_back(1 + static_cast<std::size_t>(rng.uniform_int(0, 40)));
        members.push_back(std::move(group));
      }
      std::size_t used = 0;
      for (const std::size_t m : machines) used += m;
      Twin twin(kDriftThreshold, used + static_cast<std::size_t>(rng.uniform_int(0, 400)));
      const Built built = build(members, machines, 0);
      std::vector<JobProfile> joiners;
      for (int i = 0; i < 90; ++i) joiners.push_back(src.next().profile);
      probe_each(twin, built, joiners, 100000, seed % 2 == 0,
                 std::to_string(eligible) + " candidates, seed " + std::to_string(seed));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// The probe counter of the recorded fifo seed-1 service run (kSvcGoldens'
// first case): one increment per join by that join's probe count. The value
// was counted on the scalar scheduler the kernel replaced.
TEST(IncrementalGolden, JoinProbeCountOfTheRecordedServiceRun) {
  const auto cases = golden::svc_cases();
  ASSERT_STREQ(cases.front().name, "svc_fifo_10000machines_seed1");
  obs::Counter& probes = obs::MetricsRegistry::instance().counter("incremental.join_probes");
  const std::uint64_t before = probes.value();
  const golden::SvcGolden run = golden::run_svc_case(cases.front());
  EXPECT_EQ(run.incremental_joins, 18958u);
  EXPECT_EQ(probes.value() - before, 1218373u);
}

}  // namespace
}  // namespace harmony
