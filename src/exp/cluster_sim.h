// ClusterSim: event-driven execution of a multi-job workload on a simulated
// cluster, under one of the paper's three scheduling regimes.
//
// Groups execute as subtask pipelines over per-group resources:
//  * pipelined execution (Harmony / isolated / the "subtasks only" ablation)
//    uses FIFO resources — one COMP at a time, COMM serialized — so jobs
//    interleave without contention;
//  * contended execution (naive co-location) uses processor-sharing resources
//    with an interference penalty — concurrent steps slow each other down.
//
// The *scheduling logic is the real library code*: core::schedule
// (Algorithm 1), the core::regroup_on_* rules (§IV-B4), core::Profiler
// (moving averages over measured subtask durations, not the hidden ground
// truth), core::AlphaController + core::spill_costs (§IV-C) and the
// baselines. The simulator supplies what EC2 supplied in the paper:
// machines, time, memory pressure and noise.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "check/check.h"
#include "cluster/machine.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "exp/metrics.h"
#include "exp/workload.h"
#include "harmony/profiler.h"
#include "harmony/regrouper.h"
#include "harmony/scheduler.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace harmony::exp {

enum class ExecModel {
  kPipelined,  // Harmony's subtask discipline
  kContended,  // naive: concurrent steps share and interfere
};

enum class GroupingPolicy {
  kIsolated,  // one job per group, CPU-bias DoP (Optimus/SLAQ-style)
  kRandom,    // seeded arbitrary co-location (Gandiva-style)
  kHarmony,   // Algorithm 1 + dynamic regrouping
  kOneGroup,  // force every job into one group over all machines (micro-benches)
};

// What a run varies. The simulated testbed and the policy constants every run
// shares are in cluster_sim_internal.h.
struct ClusterSimConfig {
  std::size_t machines = 100;

  ExecModel exec = ExecModel::kPipelined;
  GroupingPolicy grouping = GroupingPolicy::kHarmony;
  bool spill_enabled = true;

  std::uint64_t seed = 1;

  std::uint64_t naive_grouping_seed = 0;
  // Occupancy the naive packer squeezes groups to (Gandiva packs close to the
  // OOM line; a conservative operator would stay at the GC knee, 0.65).
  double naive_pack_occupancy = 0.90;

  // Fig. 13a: relative error injected into the profiles the scheduler sees.
  // Systematic per job (each job's profile is consistently wrong by a fixed
  // factor drawn once), which is what actually distorts grouping decisions.
  double model_error_injection = 0.0;

  // §V-G baseline: pin every job's disk ratio instead of hill climbing.
  std::optional<double> fixed_alpha;

  // Prints a one-line cluster snapshot at every utilization sample (stderr).
  bool debug_trace = false;

  // Runs the deep invariant validators (validate_state) at every regroup
  // event and at the end of the run, throwing check::CheckError on the first
  // corrupt state. Validation is read-only and consumes no randomness, so
  // results are bit-identical with it on or off.
  bool validate = false;

  // α re-optimization cadence (iterations between hill-climb observations).
  std::size_t alpha_update_every = 2;

  // Convenience presets matching the paper's three systems.
  static ClusterSimConfig isolated();
  static ClusterSimConfig naive(std::uint64_t grouping_seed = 0);
  static ClusterSimConfig harmony();
};

// Per-group disk-ratio statistics for §V-G reporting.
struct AlphaStats {
  double mean = 0.0;
  double min = 1.0;
  double max = 0.0;
  std::size_t jobs_at_one = 0;  // jobs pinned at α = 1 (model spill kicks in)
};

class ClusterSim {
 public:
  ClusterSim(ClusterSimConfig config, std::vector<WorkloadSpec> workload,
             std::vector<double> arrival_times);
  ~ClusterSim();

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  // Runs the whole workload to completion and returns the summary.
  RunSummary run();

  const UtilizationTimeline& timeline() const noexcept { return timeline_; }
  const PredictionErrors& prediction_errors() const noexcept { return prediction_errors_; }

  // Scheduling-decision shape statistics (Fig. 12).
  const SampleSet& group_dop_samples() const noexcept { return group_dops_; }
  const SampleSet& group_size_samples() const noexcept { return group_sizes_; }

  // Concurrency statistics (§V-C: "27.2 concurrent jobs ... 6.7 job groups").
  double avg_concurrent_jobs() const;
  double avg_concurrent_groups() const;

  // Wall time of the completed job iterations (includes queueing/reload
  // stalls), over every iteration and over the second half: the iterations
  // from index Σ iterations / 2 on, in completion order. §V-G compares the
  // second half's mean across α regimes.
  const RunningStats& iteration_walls() const noexcept { return iteration_walls_; }
  const RunningStats& second_half_iteration_walls() const noexcept {
    return second_half_walls_;
  }

  AlphaStats alpha_stats() const;
  double total_sched_seconds() const noexcept { return sched_wall_seconds_; }
  std::size_t sched_invocations() const noexcept { return sched_invocations_; }

  // Throughput accounting for the simulation benchmarks: events executed by
  // the underlying DES and the final simulated clock.
  std::uint64_t events_fired() const noexcept { return sim_.events_fired(); }
  double sim_now() const noexcept { return sim_.now(); }

  // Deep validators (src/check): cross-check every piece of incrementally
  // maintained state against a brute-force recomputation — machine
  // conservation across groups and the free pool, job-state indexes vs a
  // from-scratch rebuild, job<->group membership, spill ratios vs the cost
  // model's feasibility bound, pending-regroup bookkeeping, and the event
  // heap. Read-only; safe to call at any event boundary.
  check::ValidationReport validate_state() const;

  // Number of validate_state passes run by the --validate hook.
  std::size_t validations_run() const noexcept { return validations_run_; }

  // Test-only corruption hooks: each breaks exactly one maintained invariant
  // so tests can prove the matching validator detects it with a useful
  // report.
  enum class Corruption {
    kBadIndexEntry,         // foreign id inserted into the waiting index
    kOverAllocatedMachine,  // a group claims a machine the free pool still owns
    kSkewedSpillAlpha,      // a job's disk ratio pushed outside [0, 1]
    kBrokenMembership,      // group drops a member that still points at it
    kStaleIdleProfile,      // an idle-view entry misses a profile refresh
    kStaleOccupancyMemo,    // a group's occupancy memo misses an invalidation
  };
  void corrupt_for_test(Corruption kind);

  // Schedules corrupt_for_test(kind) followed by an immediate validation pass
  // at simulated time `t` (call before run()). With config.validate set, the
  // run throws check::CheckError the moment the corruption lands.
  void schedule_corruption_for_test(double t, Corruption kind);

 private:
  struct SimJob;
  struct GroupRun;

  // --- job pipeline -------------------------------------------------------
  void start_iteration(SimJob& job);
  void begin_comp(SimJob& job, double pull_duration);
  void begin_push(SimJob& job, double pull_duration, double comp_duration);
  void end_iteration(SimJob& job, double comm_duration, double comp_duration);
  double comp_duration(SimJob& job);
  double comm_half_duration(SimJob& job);

  // --- memory / spill -----------------------------------------------------
  // Brings the group's occupancy memo (GroupRun::occ) up to date: if a
  // change since the last fold marked it stale, refolds job_resident_bytes
  // and the α > 0 count over the members, in member order.
  void refresh_occupancy(GroupRun& group);
  // The job's resident footprint per machine at DoP `machines`, from its
  // spec, α and model-spill flag.
  double job_resident_bytes(const SimJob& job, std::size_t machines) const;
  void set_alpha(core::JobId id, double alpha);
  void set_model_spilled(core::JobId id, bool spilled);
  void refresh_alpha(SimJob& job);
  // When spilling is disabled, Harmony placements refuse co-locations that
  // would overflow memory outright (the operator's feasibility check the
  // spill mechanism replaces).
  bool fits_without_spill(const GroupRun& group, const SimJob& job) const;
  // No-spill fallback: a job refused from every co-location gets a dedicated
  // group at its memory-minimum DoP, if machines allow.
  void place_fallback_isolated(SimJob& job);

  // --- scheduling ---------------------------------------------------------
  // Runs one scheduler or regrouper call, `call()`, with the bookkeeping
  // every call shares: its wall time, the invocation count and a kSchedule
  // trace instant. Returns the call's result.
  template <typename Call>
  auto call_scheduler(Call&& call);
  void on_job_arrival(SimJob& job);
  void on_job_profiled(SimJob& job);
  // `left` is the group the job finished in; it may already be dissolved.
  void on_job_finished(SimJob& job, const GroupRun* left);
  void bootstrap_profiling();
  void try_schedule_isolated();
  void try_schedule_naive();
  void run_initial_harmony_schedule();
  core::SchedJob sched_view(const SimJob& job) const;
  // Idle (profiled or paused) jobs in submit order, as the scheduler sees
  // them: the idle_by_submit_ index itself, so reading it costs nothing. The
  // span aliases the index, whose entries the next job-state change
  // (set_state) may move, so callers pass it to the scheduler or regrouper
  // before applying any decision.
  std::span<const core::SchedJob> idle_sched_jobs() const { return idle_by_submit_; }
  // The running groups as the regrouper sees them — live, not stopping, with
  // at least one kRunning member — and, index for index, the GroupRun behind
  // each, so a regroup action's group index maps back to its group.
  struct RunningView {
    std::vector<core::RunningGroup> groups;
    std::vector<GroupRun*> owners;
  };
  RunningView running_view() const;

  // The one job-state write. Also called after a job arrives, joins or
  // leaves a group: it diffs the job's (arrived, state, grouped) against the
  // snapshot it last indexed and moves the job between the waiting and idle
  // indexes, the per-state counts and the profiled-ungrouped count, which
  // replace whole-pool scans on the event path.
  void set_state(SimJob& job, core::JobState state);
  // Jobs currently in state `s`; jobs that have not arrived count as
  // kWaiting.
  std::size_t jobs_in(core::JobState s) const noexcept {
    return jobs_in_state_[static_cast<std::size_t>(s)];
  }
  // The pinned scheduling order: by submit time, ties broken by job id. This
  // is a total order, so every scheduling pass sees one well-defined sequence
  // regardless of how the waiting set was assembled.
  bool submit_order_less(core::JobId a, core::JobId b) const noexcept {
    if (arrivals_[a] != arrivals_[b]) return arrivals_[a] < arrivals_[b];
    return a < b;
  }
  // Inserts `id` into (member) or erases it from (!member) an index kept in
  // submit order. The order is total, so the lower_bound position is the
  // unique insert/erase point.
  void update_submit_index(std::deque<core::JobId>& index, core::JobId id, bool member);
  // The idle view's entry for `id` (or its insert point), by the same
  // lower_bound in the pinned order.
  std::vector<core::SchedJob>::iterator idle_position(core::JobId id);
  // Waiting jobs in submit order (the order every scheduling pass uses);
  // materialized from the incrementally sorted waiting_by_submit_ index, so
  // no per-call sort.
  std::vector<SimJob*> waiting_jobs_by_submit();
  // Dissolves every empty, drained group (optionally leaving stopping groups
  // to their own drain logic).
  void dissolve_emptied_groups(bool skip_stopping);

  GroupRun& create_group(std::size_t machines);
  void dissolve_group(GroupRun& group);
  void place_job_in_group(SimJob& job, GroupRun& group, bool with_migration_delay);
  void park_job(SimJob& job, core::JobState state);
  double migration_delay(const SimJob& job, std::size_t machines) const;
  void apply_decision(const core::ScheduleDecision& decision);
  // Forms one planned group of `machines` machines: places each unfinished,
  // ungrouped job of `jobs` that fits, dissolves the group again if none
  // did, and gives every refused job its no-spill fallback group. Returns
  // the group, or null if it dissolved at once.
  GroupRun* form_planned_group(const std::vector<core::JobId>& jobs, std::size_t machines);
  void maybe_start_profiling();
  // Work conservation: if unallocated machines and idle jobs exist, runs
  // Algorithm 1 over the idle pool for just those machines.
  void schedule_on_spare_machines();
  // Tail behaviour: when machines are free but no jobs are waiting, grow the
  // DoP of the groups that benefit most (Eq. 2: more machines shrink COMP).
  void expand_groups_with_free_machines();
  // Starts a pipelined regroup: marks `involved` groups stopping and creates
  // each decision group as soon as its machines are free, with whichever of
  // its jobs have parked by then (try_apply_pending).
  void begin_pending(core::ScheduleDecision decision, std::vector<GroupRun*> involved);
  void try_apply_pending();
  std::vector<GroupRun*> live_groups() const;
  // Regroup accounting shared by every path that moves jobs between groups:
  // the run summary, the sim.regroup_events counter and a kRegroup instant,
  // tagged with the moved job and its target group when there is one.
  void note_regroup(const SimJob* job = nullptr, const GroupRun* group = nullptr);

  // --- metrics ------------------------------------------------------------
  void sample_utilization();
  void record_group_prediction(GroupRun& group);
  void settle_group_prediction(GroupRun& group);

  ClusterSimConfig config_;
  std::vector<double> arrivals_;
  core::Profiler profiler_;
  Rng rng_;

  sim::Simulator sim_;
  // The workload, moved in and never resized: each SimJob refers to its
  // spec here instead of holding a copy.
  std::vector<WorkloadSpec> specs_;
  // Dense by JobId (== pool index). Sized once in the constructor and never
  // resized afterwards, so SimJob addresses are stable for the whole run —
  // event callbacks capture SimJob* directly.
  std::vector<SimJob> jobs_;
  // Every live group plus every group dissolved since the last utilization
  // sample, in creation order, so event-path walks cost O(live groups).
  // Readers skip dissolved entries. Only sample_utilization erases (and so
  // frees) them, never while an event handler walks the list by index. A
  // group dissolves only once empty, so no lane task or pending event refers
  // to it by then; dissolve_group clears the pending regroup's references.
  std::vector<std::unique_ptr<GroupRun>> groups_;
  std::size_t next_group_id_ = 0;
  std::size_t free_machines_ = 0;

  // Hot per-job scalars as struct-of-arrays, dense by JobId. The occupancy
  // fold (refresh_occupancy -> job_resident_bytes) reads them for every
  // member, so these stay packed instead of striding through SimJob records.
  // Submit times are arrivals_ (already dense by id, immutable after
  // construction).
  std::vector<double> job_alpha_;                 // spill ratio, [0, 1]
  std::vector<std::uint8_t> job_model_spilled_;   // bool; model data on disk

  // Job-state indexes, maintained by set_state(). Both are kept in the
  // pinned (submit_time, id) scheduling order by ordered insert/erase, so no
  // scheduling pass sorts them.
  // Arrived && kWaiting. A deque: admission erases the oldest job, the
  // front, and arrivals insert at or near the back, so neither shifts the
  // rest of a backlog that can run to tens of thousands of jobs.
  std::deque<core::JobId> waiting_by_submit_;
  // kProfiled || kPaused: the idle pool every Algorithm 1 / regroup call
  // sees, held as each job's sched_view. An entry is written on insert and
  // refreshed whenever the profiler records a sample for the job (a profiled
  // job still iterating in, or draining from, its bootstrap group), so it
  // always equals sched_view(job); validate_state checks that bit for bit.
  std::vector<core::SchedJob> idle_by_submit_;
  // One count per core::JobState, indexed by its value; see jobs_in().
  static constexpr std::size_t kJobStates =
      static_cast<std::size_t>(core::JobState::kFinished) + 1;
  std::array<std::size_t, kJobStates> jobs_in_state_{};
  std::size_t profiled_ungrouped_count_ = 0;

  UtilizationTimeline timeline_;
  PredictionErrors prediction_errors_;
  SampleSet group_dops_;
  SampleSet group_sizes_;
  // Streaming concurrency means: running sums over the utilization windows
  // that had a running job, plus the count of those windows.
  double concurrent_jobs_sum_ = 0.0;
  double concurrent_groups_sum_ = 0.0;
  std::size_t concurrency_windows_ = 0;
  // Every α the hill climb sets; alpha_stats() reads its mean, min and max.
  RunningStats alpha_samples_;
  RunningStats iteration_walls_;
  RunningStats second_half_walls_;
  std::size_t second_half_start_ = 0;  // Σ spec.iterations / 2
  RunSummary summary_;
  double sched_wall_seconds_ = 0.0;
  std::size_t sched_invocations_ = 0;
  bool initial_schedule_done_ = false;
  std::size_t validations_run_ = 0;

  // --validate hook: runs validate_state() and throws on the first failure.
  void maybe_validate();

  // In-flight reschedule. Migration is per job: target groups materialize as
  // soon as their machines free up, and each job joins its target the moment
  // its ongoing iteration ends ("Harmony waits until ongoing iteration ends
  // ... and executes the other co-located jobs in the meanwhile", §IV-B4).
  struct PendingRegroup {
    core::ScheduleDecision decision;
    // Created group per plan; null until then, and again once it dissolves.
    std::vector<GroupRun*> targets;
    std::vector<bool> resolved;  // created, or abandoned (no jobs left)
    std::unordered_map<core::JobId, std::size_t> job_plan;
    std::vector<GroupRun*> involved;  // groups still draining

    // Machines still earmarked for plans that have not materialized.
    std::size_t reserved_machines() const;
  };
  std::optional<PendingRegroup> pending_regroup_;
  bool applying_pending_ = false;
  bool scheduling_spare_ = false;
  double last_reschedule_time_ = -1e18;

  // GC accounting: seconds of compute inflated away by GC vs. useful compute.
  double gc_lost_seconds_ = 0.0;
  double comp_base_seconds_ = 0.0;
};

// True when co-locating `jobs` on `machines` machines without spilling
// overflows memory (Fig. 4's OOM case).
bool co_location_ooms(const std::vector<WorkloadSpec>& jobs, std::size_t machines,
                      const cluster::MachineSpec& spec);

}  // namespace harmony::exp
