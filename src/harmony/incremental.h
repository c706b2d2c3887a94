// Incremental rescheduling for the online service mode (src/svc).
//
// Algorithm 1 recomputes the whole grouping from scratch — the right tool at
// regroup cadence, but far too heavy to run once per arrival when the service
// is fed an open-loop stream at production rates. IncrementalScheduler keeps
// the *current* grouping as mutable state and handles a single join/leave
// with bounded work:
//
//  * join: probe at most kJoinProbeLimit live groups (rotating cursor, so
//    successive joins spread over the cluster) plus the option of opening a
//    fresh group from the free pool, and take the choice with the best
//    modelled score delta. Every candidate is evaluated *re-sized* to the
//    group's collective CPU/NET balance point (m = Σ cpu_work / Σ t_net, the
//    same crossing full Algorithm 1 allocates to), drawing from or returning
//    machines to the free pool — without the resize a group would stay frozen
//    at its founder's DoP and greedy packing could never approach full
//    Algorithm-1 quality. A probe costs O(group members) (members ≤ the
//    member cap) off cached aggregates, so a join costs
//    O(kJoinProbeLimit x kMaxJobsPerGroup) regardless of cluster size.
//  * leave: remove the job from its group and re-size the remainder to its
//    balance point (bounded the same way); an emptied group dissolves and its
//    machines return to the free pool.
//
// Local repair drifts away from what a fresh Algorithm-1 run would produce —
// departures strand machines in the free pool and joins only see a bounded
// probe window. drift() measures that decay: the relative drop of the
// modelled cluster score from its peak since the last rebaseline, plus the
// fraction of machines that have drained back to the free pool. When drift()
// exceeds the drift threshold the caller re-runs full Algorithm 1 and adopt()s
// the result, resetting the baseline. validate() and
// validate_incremental_vs_full (harmony/validate.h) pin both the structural
// invariants and the bounded gap to the full re-run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "check/check.h"
#include "harmony/perf_model.h"
#include "harmony/scheduler.h"

namespace harmony::core {

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

  // Deep validator: recomputes every cached aggregate and the accumulators
  // from scratch and checks machine conservation, membership consistency and
  // group-shape bounds. Read-only.
  void validate(check::Validation& v) const;

  // Test-only corruption hooks; each breaks exactly one maintained invariant.
  enum class Corruption {
    kLostMachine,       // free-pool count decremented (conservation breakage)
    kDuplicateJob,      // a group member duplicated behind the index's back
    kSkewedAggregate,   // a cached Σ cpu_work inflated
  };
  void corrupt_for_test(Corruption kind);

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

}  // namespace harmony::core
