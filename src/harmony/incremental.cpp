#include "harmony/incremental.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/metrics.h"

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

// Two doubles in one 16-byte vector (GCC/Clang vector extensions; SSE2, the
// x86-64 baseline, divides both lanes in one instruction), and the lane masks
// its comparisons yield: all ones where true, zero where false.
typedef double F64x2 __attribute__((vector_size(16)));
using I64x2 = decltype(F64x2{} < F64x2{});

[[gnu::always_inline]] inline F64x2 splat(double x) { return F64x2{x, x}; }

// mask ? a : b per lane, in mask arithmetic.
[[gnu::always_inline]] inline F64x2 select(I64x2 mask, F64x2 a, F64x2 b) {
  return std::bit_cast<F64x2>((mask & std::bit_cast<I64x2>(a)) |
                              (~mask & std::bit_cast<I64x2>(b)));
}

// std::max(a, b) per lane: a < b ? b : a, so a tie or a NaN keeps `a`.
[[gnu::always_inline]] inline F64x2 lane_max(F64x2 a, F64x2 b) { return select(a < b, b, a); }

// What every probe of one join shares: the cluster accumulators, the free
// pool and score_scalar's per-job penalty for one more job.
struct ProbeBase {
  double acc_cpu = 0.0;
  double acc_net = 0.0;
  double alloc_machines = 0.0;
  std::size_t free_machines = 0;
  double penalty = 0.0;
};

// max(max_itr, T_itr) over the members past the first, for one lane.
double rest_max_itr(const std::vector<SchedJob>& members, double dop, double max_itr) {
  for (std::size_t k = 1; k < members.size(); ++k)
    max_itr = std::max(max_itr, members[k].profile.cpu_work / dop + members[k].profile.t_net);
  return max_itr;
}

// A join probe of two candidate groups at once, lane 0 for g0 and lane 1 for
// g1: `job` joins the group, which is re-sized to the combined balance
// point. Each lane runs the scalar operations in their scalar order, and the
// scalar domain guards become selects, so no lane divides by zero or
// converts a NaN or an out-of-range double. A probe is two passes with a
// per-lane fold of the members past the first between them.
struct PairProbe {
  const IncrementalScheduler::Group& g0;
  const IncrementalScheduler::Group& g1;
  const JobProfile& job;
  const ProbeBase& base;

  F64x2 sum_cpu() const { return F64x2{g0.sum_cpu_work, g1.sum_cpu_work} + splat(job.cpu_work); }
  F64x2 sum_net() const { return F64x2{g0.sum_t_net, g1.sum_t_net} + splat(job.t_net); }

  // balanced_dop (round_half_away as truncation plus the half step), and the
  // max T_itr at that DoP over the joining job and the first member.
  [[gnu::always_inline]] void balance(F64x2& dop, F64x2& max_itr) const {
    const F64x2 one = splat(1.0);
    const F64x2 sum_cpu = this->sum_cpu();
    const F64x2 sum_net = this->sum_net();
    // A live group holds a machine, so the limit is at least 1.
    const F64x2 limit = F64x2{static_cast<double>(g0.machines + base.free_machines),
                              static_cast<double>(g1.machines + base.free_machines)};
    // Σt_net ≤ 0 gives the limit: it divides by NaN instead, never by
    // zero. So does a NaN or a quotient ≥ limit (std::min(limit, x) keeps
    // `limit` for NaN), and a quotient ≤ -0.5, which llround takes below zero
    // and the size_t cast wraps past the limit.
    const F64x2 quotient = sum_cpu / select(sum_net > splat(0.0), sum_net,
                                            splat(std::numeric_limits<double>::quiet_NaN()));
    F64x2 x = select(quotient < limit, quotient, limit);
    x = select(x > splat(-0.5), x, limit);
    // round_half_away: truncation, then the x - whole ≥ 0.5 step. Adding and
    // taking away 2^52 rounds x ∈ [0, 2^52) to an integer, and stepping down
    // where that rounded up truncates it; from 2^52 up x is already whole.
    // For x ∈ (-0.5, 0) the result stays below 1, and the clamp gives 1.
    const F64x2 big = splat(0x1p52);
    const F64x2 nearest = (x + big) - big;
    const F64x2 whole =
        select(x < big, nearest - select(nearest > x, one, splat(0.0)), x);
    const F64x2 rounded = whole + select(x - whole >= splat(0.5), one, splat(0.0));
    dop = select(rounded < one, one, rounded);

    const JobProfile& first0 = g0.jobs.front().profile;
    const JobProfile& first1 = g1.jobs.front().profile;
    max_itr = lane_max(splat(job.cpu_work) / dop + splat(job.t_net),
                       F64x2{first0.cpu_work, first1.cpu_work} / dop +
                           F64x2{first0.t_net, first1.t_net});
  }

  // contributions over the members' max T_itr, then score_with over
  // score_scalar: the modelled cluster score after the join.
  [[gnu::always_inline]] F64x2 score(F64x2 dop, F64x2 max_itr) const {
    const F64x2 zero = splat(0.0);
    const F64x2 one = splat(1.0);
    const F64x2 sum_cpu = this->sum_cpu();
    const F64x2 sum_net = this->sum_net();
    // t_itr ≤ 0 gives zero contributions.
    const F64x2 sum_cpu_at_dop = sum_cpu / dop;
    const F64x2 t_itr = lane_max(lane_max(sum_cpu_at_dop, sum_net), max_itr);
    const I64x2 idle = t_itr <= zero;
    const F64x2 divisor = select(idle, one, t_itr);
    const F64x2 cpu = select(idle, zero, dop * sum_cpu_at_dop / divisor);
    const F64x2 net = select(idle, zero, dop * sum_net / divisor);
    // No allocated machines gives a zero score.
    const F64x2 machines =
        F64x2{static_cast<double>(g0.machines), static_cast<double>(g1.machines)};
    const F64x2 acc_cpu = splat(base.acc_cpu) - F64x2{g0.cpu_contrib, g1.cpu_contrib} + cpu;
    const F64x2 acc_net = splat(base.acc_net) - F64x2{g0.net_contrib, g1.net_contrib} + net;
    const F64x2 alloc = splat(base.alloc_machines) + dop - machines;
    const I64x2 unallocated = alloc <= zero;
    const F64x2 alloc_divisor = select(unallocated, one, alloc);
    const F64x2 util = splat(kCpuWeight) * (acc_cpu / alloc_divisor) +
                       splat(1.0 - kCpuWeight) * (acc_net / alloc_divisor);
    return select(unallocated, zero, util - splat(base.penalty));
  }
};

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
  return score_with(acc_cpu_, acc_net_, alloc_machines_, placed_.size(), nonempty_groups_);
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
  nonempty_groups_ = 0;
  for (Group& g : groups_) {
    if (!g.live) continue;
    acc_cpu_ += g.cpu_contrib;
    acc_net_ += g.net_contrib;
    alloc_machines_ += static_cast<double>(g.machines);
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
  // member storage and the index's storage are reused from the previous
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

  // The index is the pool in its own order: each planned job takes its slot
  // at its pool position, and the jobs the decision drops are erased after.
  constexpr std::uint32_t kUnplaced = UINT32_MAX;
  placed_.resize(pool.size());
  for (std::size_t k = 0; k < pool.size(); ++k) placed_[k] = Placed{pool[k], kUnplaced};

  std::size_t slot = 0;
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
      placed_[static_cast<std::size_t>(it - pool.begin())].slot =
          static_cast<std::uint32_t>(slot);
    }
    free_machines_ -= plan.machines;
    refresh_group(g);
    ++slot;
  }
  groups_.resize(slot);
  std::erase_if(placed_, [](const Placed& p) { return p.slot == kUnplaced; });
  rebuild_accumulators();
  rebaseline();
}

std::optional<IncrementalScheduler::JoinResult> IncrementalScheduler::join(
    const SchedJob& job) {
  const auto at = find_placed(job.id);
  HARMONY_CHECK(at == placed_.end() || at->job.id != job.id)
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
  static obs::Counter& join_probes =
      obs::MetricsRegistry::instance().counter("incremental.join_probes");
  const std::size_t slots = groups_.size();
  std::size_t best_group = slots;
  double best_score = 0.0;
  if (slots > 0) {
    // Scratch for one probe window. Every entry is written before it is
    // read, so none is zero-filled first.
    std::array<std::size_t, kJoinProbeLimit> candidates;
    // Positions in `candidates` of the groups with more than one member.
    std::array<std::uint8_t, kJoinProbeLimit> crowded;
    std::size_t probed = 0;
    std::size_t crowded_count = 0;
    std::size_t idx = cursor_;
    for (std::size_t step = 0; step < slots && probed < kJoinProbeLimit;
         ++step, idx = idx + 1 == slots ? 0 : idx + 1) {
      const Group& g = groups_[idx];
      if (!g.live || g.jobs.size() >= kMaxJobsPerGroup) continue;
      crowded[crowded_count] = static_cast<std::uint8_t>(probed);
      crowded_count += g.jobs.size() > 1;
      candidates[probed++] = idx;
    }
    cursor_ = cursor_ + 1 == slots ? 0 : cursor_ + 1;
    join_probes.add(probed);

    // Candidates are probed two at a time; an odd count's spare lane probes
    // the last candidate again. The winner is then picked in probe order.
    const ProbeBase base{acc_cpu_, acc_net_, alloc_machines_, free_machines_,
                         PerfModel::job_penalty(placed_.size() + 1, nonempty_groups_)};
    if (probed % 2 == 1) candidates[probed] = candidates[probed - 1];
    const std::size_t pairs = (probed + 1) / 2;
    const auto pair_probe = [&](std::size_t p) {
      return PairProbe{groups_[candidates[2 * p]], groups_[candidates[2 * p + 1]], job.profile,
                       base};
    };
    std::array<F64x2, kJoinProbeLimit / 2> dop;
    std::array<F64x2, kJoinProbeLimit / 2> max_itr;
    for (std::size_t p = 0; p < pairs; ++p) pair_probe(p).balance(dop[p], max_itr[p]);
    for (std::size_t k = 0; k < crowded_count; ++k) {
      const std::size_t i = crowded[k];
      max_itr[i / 2][i % 2] = rest_max_itr(groups_[candidates[i]].jobs, dop[i / 2][i % 2],
                                           max_itr[i / 2][i % 2]);
    }
    std::array<F64x2, kJoinProbeLimit / 2> scores;
    for (std::size_t p = 0; p < pairs; ++p) scores[p] = pair_probe(p).score(dop[p], max_itr[p]);
    for (std::size_t i = 0; i < probed; ++i) {
      const double score = scores[i / 2][i % 2];
      if (best_group == slots || score > best_score) {
        best_group = candidates[i];
        best_score = score;
      }
    }
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
                           placed_.size() + 1, nonempty_groups_ + 1);
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
    placed_.insert(at, Placed{job, static_cast<std::uint32_t>(best_group)});
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
  placed_.insert(at, Placed{job, static_cast<std::uint32_t>(slot)});
  refresh_group(g);
  maybe_rebuild();
  note_peak();
  return JoinResult{slot, true, new_t_itr};
}

bool IncrementalScheduler::leave(JobId id) {
  const auto it = find_placed(id);
  if (it == placed_.end() || it->job.id != id) return false;
  const std::size_t slot = it->slot;
  Group& g = groups_[slot];
  placed_.erase(it);

  const auto member = std::find_if(g.jobs.begin(), g.jobs.end(),
                                   [id](const SchedJob& j) { return j.id == id; });
  HARMONY_CHECK(member != g.jobs.end())
      << check::job(id) << check::group(slot) << "index points at a group without the job";
  g.jobs.erase(member);

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
  if (placed_.empty()) rebaseline();
  return true;
}

std::vector<SchedJob> IncrementalScheduler::pool() const {
  std::vector<SchedJob> out;
  out.reserve(placed_.size());
  for (const Placed& p : placed_) out.push_back(p.job);
  return out;
}

void IncrementalScheduler::validate(check::Validation& v) const {
  std::size_t machines = free_machines_;
  std::size_t jobs = 0;
  std::size_t nonempty = 0;
  double acc_cpu = 0.0;
  double acc_net = 0.0;
  double alloc = 0.0;

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
  // The index: ids strictly increasing, and each entry's slot holds that job
  // with a bit-equal profile. Distinct entries then name distinct members, so
  // equal counts make the index and the member lists one set, each job once.
  const auto same_job = [](const SchedJob& a, const SchedJob& b) {
    return a.id == b.id &&
           std::bit_cast<std::uint64_t>(a.profile.cpu_work) ==
               std::bit_cast<std::uint64_t>(b.profile.cpu_work) &&
           std::bit_cast<std::uint64_t>(a.profile.t_net) ==
               std::bit_cast<std::uint64_t>(b.profile.t_net);
  };
  for (std::size_t k = 0; k < placed_.size(); ++k) {
    const Placed& p = placed_[k];
    HARMONY_VALIDATE(v, k == 0 || placed_[k - 1].job.id < p.job.id)
        << check::job(p.job.id) << "index out of id order after job " << placed_[k - 1].job.id;
    const bool held =
        p.slot < groups_.size() &&
        std::any_of(groups_[p.slot].jobs.begin(), groups_[p.slot].jobs.end(),
                    [&](const SchedJob& member) { return same_job(member, p.job); });
    HARMONY_VALIDATE(v, held) << check::job(p.job.id) << check::group(p.slot)
                              << "indexed job not held by its group";
  }
  HARMONY_VALIDATE(v, jobs == placed_.size())
      << "job accounting: " << jobs << " members, " << placed_.size() << " indexed";
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
