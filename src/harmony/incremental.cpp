#include "harmony/incremental.h"

#include <algorithm>
#include <cmath>

#include "common/sorted_view.h"

namespace harmony::core {

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

void IncrementalScheduler::validate(check::Validation& v) const {
  std::size_t machines = free_machines_;
  std::size_t jobs = 0;
  std::size_t nonempty = 0;
  double acc_cpu = 0.0;
  double acc_net = 0.0;
  double alloc = 0.0;
  std::unordered_map<JobId, std::size_t> seen;

  for (std::size_t i = 0; i < groups_.size(); ++i) {
    const Group& g = groups_[i];
    if (!g.live) {
      HARMONY_VALIDATE(v, g.jobs.empty() && g.machines == 0)
          << check::group(i) << "dead group retains jobs or machines";
      continue;
    }
    HARMONY_VALIDATE(v, !g.jobs.empty())
        << check::group(i) << "live group with no members";
    HARMONY_VALIDATE(v, g.machines >= 1) << check::group(i) << "live group w/o machines";
    HARMONY_VALIDATE(v, g.jobs.size() <= kMaxJobsPerGroup)
        << check::group(i) << "group width " << g.jobs.size() << " exceeds kMaxJobsPerGroup";
    machines += g.machines;
    jobs += g.jobs.size();
    ++nonempty;
    alloc += static_cast<double>(g.machines);

    double sum_cpu_work = 0.0;
    double sum_t_net = 0.0;
    double max_t_itr = 0.0;
    for (const SchedJob& j : g.jobs) {
      ++seen[j.id];
      const auto idx = job_group_.find(j.id);
      HARMONY_VALIDATE(v, idx != job_group_.end() && idx->second == i)
          << check::job(j.id) << check::group(i)
          << "member not indexed back to its group";
      sum_cpu_work += j.profile.cpu_work;
      sum_t_net += j.profile.t_net;
      max_t_itr = std::max(max_t_itr, j.profile.t_itr(g.machines));
    }
    const auto close = [](double a, double b) {
      return std::abs(a - b) <= 1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
    };
    HARMONY_VALIDATE(v, close(sum_cpu_work, g.sum_cpu_work) &&
                            close(sum_t_net, g.sum_t_net) &&
                            close(max_t_itr, g.max_t_itr))
        << check::group(i) << "cached aggregates diverge from a recompute: cpu_work "
        << g.sum_cpu_work << " vs " << sum_cpu_work;
    const Contrib c = contributions(sum_cpu_work, sum_t_net, max_t_itr, g.machines);
    acc_cpu += c.cpu;
    acc_net += c.net;
  }

  HARMONY_VALIDATE(v, groups_.empty() ? cursor_ == 0 : cursor_ < groups_.size())
      << "join cursor " << cursor_ << " outside " << groups_.size() << " slots";
  HARMONY_VALIDATE(v, machines == total_machines_)
      << "machine conservation: groups + free pool = " << machines << ", cluster has "
      << total_machines_;
  HARMONY_VALIDATE(v, jobs == total_jobs_ && jobs == job_group_.size())
      << "job accounting: " << jobs << " members, " << total_jobs_ << " counted, "
      << job_group_.size() << " indexed";
  for (const auto& [id, count] : common::sorted_view(seen)) {
    HARMONY_VALIDATE(v, count == 1)
        << check::job(id) << "job appears in " << count << " member lists";
  }
  HARMONY_VALIDATE(v, nonempty == nonempty_groups_)
      << "group count: " << nonempty << " live vs " << nonempty_groups_ << " counted";
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-6 * std::max({std::abs(a), std::abs(b), 1.0});
  };
  HARMONY_VALIDATE(v, near(acc_cpu, acc_cpu_) && near(acc_net, acc_net_) &&
                          near(alloc, alloc_machines_))
      << "utilization accumulators diverge from a recompute: cpu " << acc_cpu_ << " vs "
      << acc_cpu;
}

void IncrementalScheduler::corrupt_for_test(Corruption kind) {
  switch (kind) {
    case Corruption::kLostMachine:
      HARMONY_CHECK(free_machines_ > 0) << "corruption needs a free machine";
      --free_machines_;
      break;
    case Corruption::kDuplicateJob:
      for (Group& g : groups_) {
        if (g.live && !g.jobs.empty()) {
          g.jobs.push_back(g.jobs.front());
          return;
        }
      }
      HARMONY_CHECK(false) << "corruption needs a live group";
      break;
    case Corruption::kSkewedAggregate:
      for (Group& g : groups_) {
        if (g.live) {
          g.sum_cpu_work = g.sum_cpu_work * 1.5 + 1.0;
          return;
        }
      }
      HARMONY_CHECK(false) << "corruption needs a live group";
      break;
  }
}

}  // namespace harmony::core
