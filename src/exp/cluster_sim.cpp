#include "exp/cluster_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "baselines/isolated.h"
#include "common/logging.h"
#include "common/stats.h"
#include "exp/cluster_sim_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace harmony::exp {

namespace {
constexpr double kOomSlowdownCap = 8.0;

// Simulated seconds -> trace microseconds.
constexpr double kTraceUs = 1e6;

// Scheduler wall-cost accounting only: these readings are *reported* (how
// long did the solver take on this host) and never feed back into simulated
// time, so the determinism of the simulation itself is unaffected.
using WallClock = std::chrono::steady_clock;  // lint: allow-nondeterminism

double wall_seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}
}  // namespace

// ---------------------------------------------------------------------------
// Config presets

ClusterSimConfig ClusterSimConfig::isolated() {
  ClusterSimConfig c;
  c.exec = ExecModel::kPipelined;
  c.grouping = GroupingPolicy::kIsolated;
  c.spill_enabled = false;
  return c;
}

ClusterSimConfig ClusterSimConfig::naive(std::uint64_t grouping_seed) {
  ClusterSimConfig c;
  c.exec = ExecModel::kContended;
  c.grouping = GroupingPolicy::kRandom;
  c.spill_enabled = false;
  c.naive_grouping_seed = grouping_seed;
  return c;
}

ClusterSimConfig ClusterSimConfig::harmony() { return ClusterSimConfig{}; }

// ---------------------------------------------------------------------------
// Internal structures (SimJob / GroupRun) live in cluster_sim_internal.h so
// the validators in cluster_sim_validate.cpp can inspect them.
// ---------------------------------------------------------------------------

ClusterSim::ClusterSim(ClusterSimConfig config, std::vector<WorkloadSpec> workload,
                       std::vector<double> arrival_times)
    : config_(config),
      arrivals_(std::move(arrival_times)),
      rng_(config.seed),
      specs_(std::move(workload)),
      free_machines_(config.machines) {
  if (arrivals_.size() != specs_.size())
    throw std::invalid_argument("ClusterSim: arrivals/workload size mismatch");
  if (config_.machines == 0) throw std::invalid_argument("ClusterSim: zero machines");
  const std::size_t n = specs_.size();
  // Reserve exactly: jobs_ must never reallocate (event callbacks capture
  // SimJob addresses).
  jobs_.reserve(n);
  job_alpha_.assign(n, 0.0);
  job_model_spilled_.assign(n, 0);
  std::size_t total_iterations = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // The seed is the draw rng_.fork() would make; the engine itself is built
    // lazily (SimJob::noise_rng).
    specs_[i].id = static_cast<core::JobId>(i);
    total_iterations += specs_[i].iterations;
    SimJob& job = jobs_.emplace_back(specs_[i], rng_.next_u64());
    if (config_.model_error_injection > 0.0) {
      const double e = config_.model_error_injection;
      job.err_cpu = 1.0 + rng_.uniform(-e, e);
      job.err_net = 1.0 + rng_.uniform(-e, e);
    }
  }
  second_half_start_ = total_iterations / 2;
  jobs_in_state_[static_cast<std::size_t>(core::JobState::kWaiting)] = n;
}

ClusterSim::~ClusterSim() = default;

// ---------------------------------------------------------------------------
// Memory / spill

double ClusterSim::job_resident_bytes(const SimJob& job, std::size_t machines) const {
  const core::SpillCosts c =
      core::spill_costs(job.spec.input_bytes(), job.spec.model_bytes(),
                        job_alpha_[job.spec.id], machines, kMachineSpec);
  double resident = c.resident_bytes;
  if (job_model_spilled_[job.spec.id] != 0) {
    // Model spill keeps only a small working window of the model resident;
    // the rest streams through the reload path charged in comp_duration.
    constexpr double kModelSpillEvicted = 0.85;
    resident -= kModelSpillEvicted * job.spec.model_bytes() * core::kModelMemExpansion /
                static_cast<double>(machines);
  }
  return std::max(resident, 0.0);
}

void ClusterSim::set_alpha(core::JobId id, double alpha) {
  if (job_alpha_[id] == alpha) return;
  job_alpha_[id] = alpha;
  if (GroupRun* g = jobs_[id].group) g->occ.valid = false;
}

void ClusterSim::set_model_spilled(core::JobId id, bool spilled) {
  const std::uint8_t v = spilled ? 1 : 0;
  if (job_model_spilled_[id] == v) return;
  job_model_spilled_[id] = v;
  if (GroupRun* g = jobs_[id].group) g->occ.valid = false;
}

void ClusterSim::refresh_occupancy(GroupRun& group) {
  if (group.occ.valid) return;
  double resident = 0.0;
  std::size_t spilling = 0;
  for (core::JobId id : group.members) {
    resident += job_resident_bytes(jobs_[id], group.machines);
    if (job_alpha_[id] > 0.0) ++spilling;
  }
  group.occ.occupancy = resident / kMachineSpec.memory_bytes;
  group.occ.spilling = spilling;
  group.occ.valid = true;
}

bool ClusterSim::fits_without_spill(const GroupRun& group, const SimJob& job) const {
  if (config_.spill_enabled || config_.grouping != GroupingPolicy::kHarmony) return true;
  double resident = job.spec.resident_bytes(group.machines, 0.0);
  for (core::JobId id : group.members)
    resident += jobs_[id].spec.resident_bytes(group.machines, 0.0);
  return resident <= 0.9 * kMachineSpec.memory_bytes;
}

void ClusterSim::place_fallback_isolated(SimJob& job) {
  if (job.group != nullptr || job.state == core::JobState::kFinished) return;
  const std::size_t need = job.spec.min_machines_without_spill(kMachineSpec);
  if (need > free_machines_) return;
  GroupRun& g = create_group(need);
  place_job_in_group(job, g, /*with_migration_delay=*/true);
  group_dops_.add(static_cast<double>(need));
  group_sizes_.add(1.0);
  record_group_prediction(g);
}

void ClusterSim::refresh_alpha(SimJob& job) {
  const core::JobId jid = job.spec.id;
  if (!config_.spill_enabled || job.group == nullptr) {
    set_alpha(jid, 0.0);
    set_model_spilled(jid, false);
    return;
  }
  const std::size_t m = job.group->machines;
  if (config_.fixed_alpha) {
    const double a = std::clamp(*config_.fixed_alpha, 0.0, 1.0);
    set_alpha(jid, a);
    const double share =
        kMachineSpec.memory_bytes /
        std::max<double>(1.0, static_cast<double>(job.group->members.size()));
    const core::SpillCosts at_cur = core::spill_costs(
        job.spec.input_bytes(), job.spec.model_bytes(), a, m, kMachineSpec);
    set_model_spilled(jid, a >= 0.999 && at_cur.resident_bytes > cluster::kGcThreshold * share);
    return;
  }
  const double share = kMachineSpec.memory_bytes /
                       std::max<double>(1.0, static_cast<double>(job.group->members.size()));
  const double prev_alpha = job_alpha_[jid];
  // α is the smallest ratio whose resident footprint fits the group's
  // current occupancy target (per-job ratios, coordinated target, §IV-C).
  const double target = job.group->occ_ctl ? job.group->occ_ctl->alpha()
                                           : kAlphaFloorOccupancy;
  const double alpha = core::AlphaController::initial_alpha(
      job.spec.input_bytes(), job.spec.model_bytes(), m, share, target, kMachineSpec);
  set_alpha(jid, alpha);
  // If even α = 1 overflows this job's share, spill model data too (§V-G:
  // "Harmony enables spill/reload of model data for those jobs").
  const core::SpillCosts at_one = core::spill_costs(
      job.spec.input_bytes(), job.spec.model_bytes(), 1.0, m, kMachineSpec);
  set_model_spilled(jid,
                    alpha >= 0.999 && at_one.resident_bytes > cluster::kGcThreshold * share);
  if (obs::Tracer::enabled() && alpha > 0.0 && alpha != prev_alpha)
    obs::Tracer::instant(obs::EventKind::kSpill, obs::ClockDomain::kSim,
                         sim_.now() * kTraceUs, job.spec.id,
                         static_cast<std::uint32_t>(job.group->id), obs::kNoEntity,
                         static_cast<std::uint64_t>(alpha * job.spec.input_bytes()));
}

// ---------------------------------------------------------------------------
// Job pipeline

double ClusterSim::comm_half_duration(SimJob& job) {
  return 0.5 * job.spec.t_net * job.noise_rng().lognormal_noise(kSubtaskNoiseCv);
}

double ClusterSim::comp_duration(SimJob& job) {
  GroupRun& g = *job.group;
  const double base = job.spec.cpu_work / static_cast<double>(g.machines);
  refresh_occupancy(g);
  const double occ = g.occ.occupancy;

  double gc = cluster::gc_slowdown(occ);
  if (cluster::oom(occ)) {
    if (!g.oom_recorded) {
      g.oom_recorded = true;
      summary_.oom_events++;
      obs::MetricsRegistry::instance().counter("sim.oom_events").add();
      if (obs::Tracer::enabled())
        obs::Tracer::instant(obs::EventKind::kOom, obs::ClockDomain::kSim,
                             sim_.now() * kTraceUs, job.spec.id,
                             static_cast<std::uint32_t>(g.id));
      if (config_.debug_trace)
        std::fprintf(stderr, "OOM: group %zu members=%zu machines=%zu occ=%.3f\n", g.id,
                     g.members.size(), g.machines, occ);
    }
    gc = kOomSlowdownCap;  // thrashing instead of a hard kill keeps jobs comparable
  }
  gc = std::min(gc, kOomSlowdownCap);
  gc_lost_seconds_ += base * (gc - 1.0);
  comp_base_seconds_ += base;

  const core::SpillCosts costs = core::spill_costs(
      job.spec.input_bytes(), job.spec.model_bytes(), job_alpha_[job.spec.id],
      g.machines, kMachineSpec);
  double extra = costs.deserialize_seconds;
  if (job_model_spilled_[job.spec.id] != 0) {
    // Model reload+deserialize rides on the compute path.
    const double model_raw = job.spec.model_bytes() / static_cast<double>(g.machines);
    extra += model_raw / kMachineSpec.disk_bytes_per_sec +
             model_raw * core::kDeserializeSecPerByte;
  }
  return (base * gc + extra) * job.noise_rng().lognormal_noise(kSubtaskNoiseCv);
}

void ClusterSim::start_iteration(SimJob& job) {
  GroupRun& g = *job.group;
  HARMONY_CHECK(!job.in_flight) << check::job(job.spec.id) << "start_iteration: job "
                                << job.spec.id << " already in flight (state="
                                << core::to_string(job.state) << ")";
  job.in_flight = true;
  job.iter_start_time = sim_.now();
  const double d_pull = comm_half_duration(job);
  g.net->submit(d_pull, [this, &job, d_pull] { begin_comp(job, d_pull); });
}

void ClusterSim::begin_comp(SimJob& job, double pull_duration) {
  GroupRun& g = *job.group;
  // The pull COMM subtask's service on the group's network lane just ended.
  if (obs::Tracer::enabled())
    obs::Tracer::complete(obs::EventKind::kSubtaskPull, obs::ClockDomain::kSim,
                          (sim_.now() - pull_duration) * kTraceUs, pull_duration * kTraceUs,
                          job.spec.id, static_cast<std::uint32_t>(g.id));
  auto submit = [this, &job, &g, pull_duration] {
    const double d_comp = comp_duration(job);
    g.cpu->submit(d_comp, [this, &job, pull_duration, d_comp] {
      begin_push(job, pull_duration, d_comp);
    });
  };
  // The COMP subtask cannot start until this job's disk-side blocks for the
  // iteration have been reloaded (they stream in the background since the
  // last COMP ended).
  if (sim_.now() < job.reload_ready_at) {
    if (obs::Tracer::enabled())
      obs::Tracer::complete(obs::EventKind::kReload, obs::ClockDomain::kSim,
                            sim_.now() * kTraceUs,
                            (job.reload_ready_at - sim_.now()) * kTraceUs, job.spec.id,
                            static_cast<std::uint32_t>(g.id));
    sim_.schedule_at(job.reload_ready_at, submit);
  } else {
    submit();
  }
}

void ClusterSim::begin_push(SimJob& job, double pull_duration, double comp_dur) {
  HARMONY_CHECK(job.group != nullptr)
      << check::job(job.spec.id) << "begin_push: job " << job.spec.id
      << " state=" << core::to_string(job.state) << " iters=" << job.iterations_done << "/"
      << job.spec.iterations << " in_group=" << job.iters_in_group;
  GroupRun& g = *job.group;
  // The COMP subtask's service on the group's CPU lane just ended.
  if (obs::Tracer::enabled())
    obs::Tracer::complete(obs::EventKind::kSubtaskComp, obs::ClockDomain::kSim,
                          (sim_.now() - comp_dur) * kTraceUs, comp_dur * kTraceUs,
                          job.spec.id, static_cast<std::uint32_t>(g.id));
  // Background reload for the next iteration starts now; co-located spilling
  // jobs share the disk.
  refresh_occupancy(g);
  const std::size_t spilling = g.occ.spilling;
  const core::SpillCosts costs = core::spill_costs(
      job.spec.input_bytes(), job.spec.model_bytes(), job_alpha_[job.spec.id],
      g.machines, kMachineSpec);
  job.reload_ready_at =
      sim_.now() + costs.reload_seconds * static_cast<double>(std::max<std::size_t>(1, spilling));

  const double d_push = comm_half_duration(job);
  g.net->submit(d_push, [this, &job, pull_duration, comp_dur, d_push] {
    if (obs::Tracer::enabled() && job.group != nullptr)
      obs::Tracer::complete(obs::EventKind::kSubtaskPush, obs::ClockDomain::kSim,
                            (sim_.now() - d_push) * kTraceUs, d_push * kTraceUs,
                            job.spec.id, static_cast<std::uint32_t>(job.group->id));
    end_iteration(job, pull_duration + d_push, comp_dur);
  });
}

void ClusterSim::end_iteration(SimJob& job, double comm_duration, double comp_duration_s) {
  GroupRun& g = *job.group;
  job.in_flight = false;
  ++job.iterations_done;
  ++job.iters_in_group;

  profiler_.record(job.spec.id, g.machines, comp_duration_s, comm_duration);
  // The sample moved the job's measured profile; an idle job's view entry
  // must follow it.
  if (idle_state(job.state)) idle_position(job.spec.id)->profile = sched_view(job).profile;

  const double wall = sim_.now() - job.iter_start_time;
  if (obs::Tracer::enabled())
    obs::Tracer::complete(obs::EventKind::kIteration, obs::ClockDomain::kSim,
                          job.iter_start_time * kTraceUs, wall * kTraceUs, job.spec.id,
                          static_cast<std::uint32_t>(g.id));
  if (iteration_walls_.size() >= second_half_start_) second_half_walls_.add(wall);
  iteration_walls_.add(wall);
  if (job.iters_in_group >= 2) g.actual_iteration_times.add(wall);

  // Occupancy-target hill climbing on observed iteration times (§IV-C).
  if (config_.spill_enabled && !config_.fixed_alpha && g.occ_ctl) {
    g.recent_walls.add(wall);
    ++g.iters_since_alpha_update;
    const std::size_t cadence =
        std::max<std::size_t>(1, config_.alpha_update_every) *
        std::max<std::size_t>(1, g.members.size());
    if (g.iters_since_alpha_update >= cadence && g.recent_walls.size() >= 4) {
      g.iters_since_alpha_update = 0;
      g.occ_ctl->observe(g.recent_walls.mean());
      for (core::JobId id : g.members) {
        refresh_alpha(jobs_[id]);
        alpha_samples_.add(job_alpha_[id]);
      }
    }
  }

  // Finished?
  if (job.iterations_done >= job.spec.iterations) {
    job.noise.reset();  // no subtask draws after the last iteration
    summary_.jobs.push_back(JobOutcome{job.spec.id, arrivals_[job.spec.id], sim_.now()});
    auto it = std::find(g.members.begin(), g.members.end(), job.spec.id);
    if (it != g.members.end()) g.members.erase(it);
    g.occ.valid = false;
    job.group = nullptr;
    set_state(job, core::JobState::kFinished);
    // A stopping group may have been waiting on exactly this job to drain.
    if (g.stopping && g.members.empty()) dissolve_group(g);
    on_job_finished(job, &g);
    return;
  }

  // Profiling complete?
  if (job.state == core::JobState::kProfiling && profiler_.is_profiled(job.spec.id)) {
    on_job_profiled(job);
    // The job may have been parked, or migrated into another group —
    // migration schedules its own (delayed) start, so continuing here would
    // run two pipelines for one job.
    if (job.group == nullptr || job.iters_in_group == 0) return;
  }

  // Group being torn down for a regroup?
  if (g.stopping) {
    park_job(job, core::JobState::kPaused);
    return;
  }

  start_iteration(job);
}

// ---------------------------------------------------------------------------
// Group management

ClusterSim::GroupRun& ClusterSim::create_group(std::size_t machines) {
  if (machines == 0) throw std::logic_error("create_group: zero machines");
  if (machines > free_machines_) throw std::logic_error("create_group: not enough machines");
  free_machines_ -= machines;

  GroupRun& g = *groups_.emplace_back(std::make_unique<GroupRun>());
  g.id = next_group_id_++;
  g.machines = machines;
  if (config_.exec == ExecModel::kPipelined) {
    g.cpu = std::make_unique<sim::FifoResource>(sim_);
    g.net = std::make_unique<sim::FifoResource>(sim_);
  } else {
    // Contended execution: concurrent steps split the capacity and pay an
    // interference penalty — the naive co-location behaviour of Fig. 5a.
    g.cpu = std::make_unique<sim::SharedResource>(sim_, 1.0, kContentionPenalty);
    g.net = std::make_unique<sim::SharedResource>(sim_, 1.0, kContentionPenalty);
  }
  obs::MetricsRegistry::instance().counter("sim.groups_created").add();
  if (obs::Tracer::enabled())
    obs::Tracer::instant(obs::EventKind::kGroupCreate, obs::ClockDomain::kSim,
                         sim_.now() * kTraceUs, obs::kNoEntity,
                         static_cast<std::uint32_t>(g.id), obs::kNoEntity, machines);
  return g;
}

void ClusterSim::place_job_in_group(SimJob& job, GroupRun& group, bool with_migration_delay) {
  HARMONY_CHECK(job.group == nullptr)
      << check::job(job.spec.id) << "place: job " << job.spec.id
      << " state=" << core::to_string(job.state) << " group=" << job.group->id << "->"
      << group.id << " in_flight=" << (job.in_flight ? 1 : 0);
  job.group = &group;
  job.iters_in_group = 0;
  group.members.push_back(job.spec.id);
  group.occ.valid = false;
  // A profiling job goes on profiling in its group; any other job runs.
  set_state(job, job.state == core::JobState::kProfiling ? core::JobState::kProfiling
                                                         : core::JobState::kRunning);
  refresh_alpha(job);
  // Every co-tenant's memory share just shrank: recompute everyone's α for
  // the group's occupancy target.
  if (config_.spill_enabled && !config_.fixed_alpha) {
    if (!group.occ_ctl) group.occ_ctl.emplace(kAlphaFloorOccupancy);
    for (core::JobId id : group.members) {
      SimJob& member = jobs_[id];
      if (&member == &job) continue;
      refresh_alpha(member);
    }
  }

  double delay = 0.0;
  if (with_migration_delay) {
    delay = migration_delay(job, group.machines);
    summary_.migration_overhead_sec += delay;
    if (obs::Tracer::enabled() && delay > 0.0)
      obs::Tracer::complete(obs::EventKind::kCheckpoint, obs::ClockDomain::kSim,
                            sim_.now() * kTraceUs, delay * kTraceUs, job.spec.id,
                            static_cast<std::uint32_t>(group.id));
  }
  sim_.schedule_in(delay, [this, &job, &group] {
    if (job.group == &group && job.state != core::JobState::kFinished) start_iteration(job);
  });
}

double ClusterSim::migration_delay(const SimJob& job, std::size_t machines) const {
  // Checkpoint restore + input reload, spread across the new group's
  // machines' disks (§IV-B4: only stateful model parameters move; immutable
  // input is simply reloaded).
  const double m = static_cast<double>(machines);
  const double model_io = 2.0 * job.spec.model_bytes() / m;  // write + read
  const double input_io = (1.0 - job_alpha_[job.spec.id]) * job.spec.input_bytes() / m;
  return (model_io + input_io) / kMachineSpec.disk_bytes_per_sec;
}

void ClusterSim::park_job(SimJob& job, core::JobState state) {
  GroupRun* g = job.group;
  HARMONY_CHECK(g != nullptr) << check::job(job.spec.id) << "park_job: job " << job.spec.id
                              << " has no group";
  HARMONY_CHECK(!job.in_flight) << check::job(job.spec.id) << "park_job: job " << job.spec.id
                                << " in flight (state=" << core::to_string(job.state)
                                << " -> " << core::to_string(state)
                                << ", iters=" << job.iterations_done << ")";
  auto it = std::find(g->members.begin(), g->members.end(), job.spec.id);
  if (it != g->members.end()) g->members.erase(it);
  g->occ.valid = false;
  job.group = nullptr;
  set_alpha(job.spec.id, 0.0);
  set_model_spilled(job.spec.id, false);
  set_state(job, state);

  if (g->stopping && g->members.empty()) {
    dissolve_group(*g);  // dissolve advances any pending regroup itself
  }

  // Per-job migration: if a pending regroup routed this job to an
  // already-created target group, it moves there right now — the rest of its
  // old group keeps running (§IV-B4). The dissolve above may already have
  // placed it (try_apply_pending), hence the group re-check.
  if (pending_regroup_ && !applying_pending_ && job.group == nullptr &&
      job.state != core::JobState::kFinished) {
    auto it = pending_regroup_->job_plan.find(job.spec.id);
    if (it != pending_regroup_->job_plan.end()) {
      GroupRun* target = pending_regroup_->targets[it->second];
      if (target != nullptr && !target->stopping &&
          fits_without_spill(*target, job)) {
        settle_group_prediction(*target);
        place_job_in_group(job, *target, /*with_migration_delay=*/true);
        group_dops_.add(static_cast<double>(target->machines));
        record_group_prediction(*target);
        return;
      }
    }
  }
  try_apply_pending();  // machines/jobs freed may unblock pending plans
}

void ClusterSim::dissolve_group(GroupRun& group) {
  if (group.dissolved) return;
  settle_group_prediction(group);
  group.dissolved = true;
  obs::MetricsRegistry::instance().counter("sim.groups_dissolved").add();
  if (obs::Tracer::enabled())
    obs::Tracer::instant(obs::EventKind::kGroupDissolve, obs::ClockDomain::kSim,
                         sim_.now() * kTraceUs, obs::kNoEntity,
                         static_cast<std::uint32_t>(group.id));
  free_machines_ += group.machines;
  group.machines = 0;
  group.occ.valid = false;
  // The group is empty, so its lanes are idle and no event refers to it; the
  // sampler frees it. Until then it is skipped by every view, and the pending
  // regroup must stop naming it.
  if (pending_regroup_) {
    std::erase(pending_regroup_->involved, &group);
    for (GroupRun*& target : pending_regroup_->targets)
      if (target == &group) target = nullptr;
  }
  try_apply_pending();
}

// ---------------------------------------------------------------------------
// Job-state / group indexes
//
// Every event handler used to answer "which jobs are waiting / idle / still
// profiling?" with a full jobs_ scan. The indexes below maintain those
// answers incrementally, keyed off the same predicates, so the per-event cost
// tracks the live population instead of everything ever created. The waiting
// and idle lists are kept in the pinned (submit_time, id) order, the order
// every scheduling pass reads them in, so reading them needs no sort; the
// idle list holds the scheduler's view of each job, so reading it needs no
// gather either.

void ClusterSim::update_submit_index(std::deque<core::JobId>& index, core::JobId id,
                                     bool member) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), id,
      [this](core::JobId a, core::JobId b) { return submit_order_less(a, b); });
  if (member) {
    index.insert(it, id);
  } else {
    index.erase(it);
  }
}

std::vector<core::SchedJob>::iterator ClusterSim::idle_position(core::JobId id) {
  return std::lower_bound(
      idle_by_submit_.begin(), idle_by_submit_.end(), id,
      [this](const core::SchedJob& e, core::JobId key) { return submit_order_less(e.id, key); });
}

void ClusterSim::set_state(SimJob& job, core::JobState state) {
  const core::JobId id = job.spec.id;
  const core::JobState was = job.state;
  const bool grouped = job.group != nullptr;
  job.state = state;

  const bool was_waiting = job.indexed_arrived && was == core::JobState::kWaiting;
  const bool waiting = job.arrived && state == core::JobState::kWaiting;
  if (waiting != was_waiting) update_submit_index(waiting_by_submit_, id, waiting);
  if (idle_state(state) != idle_state(was)) {
    const auto it = idle_position(id);
    if (idle_state(state)) {
      idle_by_submit_.insert(it, sched_view(job));
    } else {
      idle_by_submit_.erase(it);
    }
  }
  --jobs_in_state_[static_cast<std::size_t>(was)];
  ++jobs_in_state_[static_cast<std::size_t>(state)];
  const bool was_profiled_ungrouped = was == core::JobState::kProfiled && !job.indexed_grouped;
  const bool profiled_ungrouped = state == core::JobState::kProfiled && !grouped;
  if (profiled_ungrouped != was_profiled_ungrouped)
    profiled_ungrouped ? ++profiled_ungrouped_count_ : --profiled_ungrouped_count_;
  job.indexed_arrived = job.arrived;
  job.indexed_grouped = grouped;
}

std::vector<ClusterSim::SimJob*> ClusterSim::waiting_jobs_by_submit() {
  // waiting_by_submit_ is maintained in (submit_time, id) order, so this is a
  // straight gather — scheduling passes used to re-sort the whole backlog
  // here, which dominated the profile at 100k machines.
  std::vector<SimJob*> waiting;
  waiting.reserve(waiting_by_submit_.size());
  for (core::JobId id : waiting_by_submit_) waiting.push_back(&jobs_[id]);
  return waiting;
}

void ClusterSim::dissolve_emptied_groups(bool skip_stopping) {
  // Indexed iteration: dissolve can re-enter through try_apply_pending and
  // append freshly created groups, which must be visited too. Nothing but
  // the sampler removes entries, so the indices stay put.
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    GroupRun& g = *groups_[gi];
    if (g.dissolved || (skip_stopping && g.stopping)) continue;
    if (g.members.empty()) dissolve_group(g);
  }
}

// ---------------------------------------------------------------------------
// Scheduling — shared helpers

core::SchedJob ClusterSim::sched_view(const SimJob& job) const {
  core::JobProfile p;
  if (config_.grouping == GroupingPolicy::kHarmony) {
    const auto measured = profiler_.profile(job.spec.id);
    p = measured.value_or(job.spec.profile());
  } else {
    // Baselines are granted oracle profiles (their best case).
    p = job.spec.profile();
  }
  p.cpu_work *= job.err_cpu;
  p.t_net *= job.err_net;
  return core::SchedJob{job.spec.id, p};
}

ClusterSim::RunningView ClusterSim::running_view() const {
  RunningView out;
  for (const auto& g : groups_) {
    if (g->dissolved || g->stopping) continue;
    core::RunningGroup rg;
    rg.machines = g->machines;
    for (core::JobId id : g->members) {
      if (jobs_[id].state == core::JobState::kRunning)
        rg.jobs.push_back(sched_view(jobs_[id]));
    }
    if (rg.jobs.empty()) continue;
    out.groups.push_back(std::move(rg));
    out.owners.push_back(g.get());
  }
  return out;
}

std::vector<ClusterSim::GroupRun*> ClusterSim::live_groups() const {
  std::vector<GroupRun*> out;
  for (const auto& g : groups_)
    if (!g->dissolved && !g->stopping) out.push_back(g.get());
  return out;
}

void ClusterSim::note_regroup(const SimJob* job, const GroupRun* group) {
  ++summary_.regroup_events;
  obs::MetricsRegistry::instance().counter("sim.regroup_events").add();
  if (obs::Tracer::enabled())
    obs::Tracer::instant(obs::EventKind::kRegroup, obs::ClockDomain::kSim,
                         sim_.now() * kTraceUs, job ? job->spec.id : obs::kNoEntity,
                         group ? static_cast<std::uint32_t>(group->id) : obs::kNoEntity);
}

template <typename Call>
auto ClusterSim::call_scheduler(Call&& call) {
  const auto t0 = WallClock::now();
  auto result = call();
  sched_wall_seconds_ += wall_seconds_since(t0);
  ++sched_invocations_;
  if (obs::Tracer::enabled())
    obs::Tracer::instant(obs::EventKind::kSchedule, obs::ClockDomain::kSim,
                         sim_.now() * kTraceUs);
  return result;
}

ClusterSim::GroupRun* ClusterSim::form_planned_group(const std::vector<core::JobId>& jobs,
                                                     std::size_t machines) {
  GroupRun& g = create_group(machines);
  std::size_t placed = 0;
  std::vector<SimJob*> refused;
  for (core::JobId id : jobs) {
    SimJob& job = jobs_[id];
    if (job.state == core::JobState::kFinished || job.group != nullptr) continue;
    if (!fits_without_spill(g, job)) {
      refused.push_back(&job);  // no-spill runs: cannot share this group
      continue;
    }
    place_job_in_group(job, g, /*with_migration_delay=*/true);
    group_dops_.add(static_cast<double>(machines));
    ++placed;
  }
  if (placed == 0) {
    dissolve_group(g);
  } else {
    group_sizes_.add(static_cast<double>(placed));
    record_group_prediction(g);
  }
  for (SimJob* job : refused) place_fallback_isolated(*job);
  return placed == 0 ? nullptr : &g;
}

// ---------------------------------------------------------------------------
// Scheduling — event handlers

void ClusterSim::on_job_arrival(SimJob& job) {
  job.arrived = true;
  set_state(job, core::JobState::kWaiting);
  switch (config_.grouping) {
    case GroupingPolicy::kIsolated:
      try_schedule_isolated();
      break;
    case GroupingPolicy::kRandom:
      try_schedule_naive();
      break;
    case GroupingPolicy::kHarmony:
      // Defer: arrival events carry the same timestamp when jobs are
      // submitted in a batch, and the bootstrap should see the whole batch,
      // not just the first arrival. Same-time events fire in FIFO order, so
      // this runs after every pending arrival.
      sim_.schedule_at(sim_.now(), [this] { maybe_start_profiling(); });
      break;
    case GroupingPolicy::kOneGroup: {
      // Micro-bench policy: every job runs in one group spanning the whole
      // cluster (forces a specific DoP / co-location set).
      auto groups = live_groups();
      GroupRun* target;
      if (groups.empty()) {
        target = &create_group(free_machines_);
      } else {
        target = groups.front();
      }
      place_job_in_group(job, *target, /*with_migration_delay=*/false);
      record_group_prediction(*target);
      break;
    }
  }
}

void ClusterSim::maybe_start_profiling() {
  if (waiting_by_submit_.empty()) return;

  const auto groups = live_groups();
  if (groups.empty() && pending_regroup_ == std::nullopt) {
    // No groups at all (startup, or everything drained between arrivals):
    // profile the backlog in naive bootstrap groups.
    bootstrap_profiling();
    return;
  }

  // Steady state: profile into the group with the fewest machines (or the
  // one already profiling), up to the concurrency cap (§IV-B1). Only the
  // oldest cap - profiling waiting jobs can be admitted, so the cost is
  // O(cap), not O(backlog). Snapshot them before placing: set_state erases
  // each admitted job from waiting_by_submit_.
  const std::size_t profiling = jobs_in(core::JobState::kProfiling);
  if (profiling >= kMaxProfilingJobs || groups.empty()) return;
  const std::size_t admit =
      std::min(kMaxProfilingJobs - profiling, waiting_by_submit_.size());
  const std::vector<core::JobId> oldest(waiting_by_submit_.begin(),
                                        waiting_by_submit_.begin() + admit);
  for (core::JobId job_id : oldest) {
    SimJob& job = jobs_[job_id];
    GroupRun* target = nullptr;
    for (GroupRun* g : groups) {
      bool has_profiling = false;
      for (core::JobId id : g->members)
        if (jobs_[id].state == core::JobState::kProfiling) has_profiling = true;
      if (has_profiling) {
        target = g;
        break;
      }
      if (target == nullptr || g->machines < target->machines) target = g;
    }
    if (target == nullptr) break;
    set_state(job, core::JobState::kProfiling);
    place_job_in_group(job, *target, /*with_migration_delay=*/true);
  }
}

void ClusterSim::bootstrap_profiling() {
  // Initial naive placement for profiling (§III: a submitted job "gets
  // naively assigned to a group ... to be profiled"). Jobs are chunked and
  // each chunk gets an even share of the cluster.
  std::vector<SimJob*> waiting = waiting_jobs_by_submit();
  if (waiting.empty()) return;

  const std::size_t chunk_size = 8;
  const std::size_t chunks =
      std::clamp<std::size_t>((waiting.size() + chunk_size - 1) / chunk_size, 1,
                              std::max<std::size_t>(1, free_machines_));
  const std::size_t machines_per_chunk = std::max<std::size_t>(1, free_machines_ / chunks);

  std::size_t cursor = 0;
  for (std::size_t c = 0; c < chunks && cursor < waiting.size(); ++c) {
    const std::size_t take =
        std::min(waiting.size() - cursor, (waiting.size() + chunks - 1) / chunks);
    const std::size_t m = std::min(machines_per_chunk, free_machines_);
    if (m == 0) break;
    GroupRun& g = create_group(m);
    for (std::size_t k = 0; k < take; ++k) {
      SimJob* job = waiting[cursor++];
      set_state(*job, core::JobState::kProfiling);
      place_job_in_group(*job, g, /*with_migration_delay=*/false);
    }
  }
}

void ClusterSim::schedule_on_spare_machines() {
  // Work conservation: the paper's allocateMachines always distributes every
  // machine it is given, so unallocated machines plus an idle backlog means
  // we should form new groups (this also recovers after arrival lulls).
  // Machines earmarked for a pending regroup's yet-to-form groups are not
  // spare.
  if (scheduling_spare_) return;  // re-entry via apply/dissolve chains
  std::size_t reserved = pending_regroup_ ? pending_regroup_->reserved_machines() : 0;
  if (free_machines_ <= reserved) return;
  const std::size_t spare = free_machines_ - reserved;
  // Gate on a meaningful chunk of machines: forming 2-machine groups from
  // every scrap fragments the cluster and churns migrations. On tiny
  // clusters the gate drops to one machine or jobs would starve.
  const std::size_t gate =
      std::min<std::size_t>(4, std::max<std::size_t>(1, config_.machines / 20));
  if (spare < gate) return;
  const auto idle = idle_sched_jobs();
  if (idle.empty()) return;
  scheduling_spare_ = true;
  const core::ScheduleDecision decision =
      call_scheduler([&] { return core::schedule(idle, spare); });
  apply_decision(decision);
  scheduling_spare_ = false;
}

void ClusterSim::expand_groups_with_free_machines() {
  // Only for Harmony's grouping and only once the backlog is empty: extra
  // machines shrink COMP (Eq. 2), shortening the remaining groups' cycles.
  if (config_.grouping != GroupingPolicy::kHarmony) return;
  if (pending_regroup_ || free_machines_ == 0) return;
  if (!waiting_by_submit_.empty() || jobs_in(core::JobState::kPaused) > 0 ||
      profiled_ungrouped_count_ > 0)
    return;  // backlog exists: machines belong to new groups instead

  // A grant changes only the winner's marginal gain, so compute each group's
  // gain once and refresh just the granted group per iteration. The live list
  // cannot change inside the loop (no group is created or dissolved here).
  const auto groups = live_groups();
  core::GroupShape shape;
  const auto gain_of = [&](GroupRun* g) {
    shape.machines = g->machines;
    shape.jobs.clear();
    for (core::JobId id : g->members) shape.jobs.push_back(jobs_[id].spec.profile());
    if (shape.jobs.empty()) return 0.0;  // below the grant threshold: never picked
    const double now_t = core::PerfModel::group_iteration_time(shape);
    ++shape.machines;
    const double next_t = core::PerfModel::group_iteration_time(shape);
    return (now_t - next_t) / std::max(now_t, 1e-9);
  };
  std::vector<double> gains(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) gains[i] = gain_of(groups[i]);

  while (free_machines_ > 0) {
    std::size_t best = groups.size();
    double best_gain = 1e-6;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (gains[i] > best_gain) {
        best_gain = gains[i];
        best = i;
      }
    }
    if (best == groups.size()) break;
    --free_machines_;
    ++groups[best]->machines;
    groups[best]->occ.valid = false;
    gains[best] = gain_of(groups[best]);
  }
}

std::size_t ClusterSim::PendingRegroup::reserved_machines() const {
  std::size_t reserved = 0;
  for (std::size_t i = 0; i < decision.groups.size(); ++i)
    if (!resolved[i]) reserved += decision.groups[i].machines;
  return reserved;
}

void ClusterSim::begin_pending(core::ScheduleDecision decision,
                               std::vector<GroupRun*> involved) {
  PendingRegroup pr;
  pr.targets.assign(decision.groups.size(), nullptr);
  pr.resolved.assign(decision.groups.size(), false);
  for (std::size_t i = 0; i < decision.groups.size(); ++i)
    for (core::JobId id : decision.groups[i].jobs) pr.job_plan[id] = i;
  pr.decision = std::move(decision);
  pr.involved = involved;
  pending_regroup_.emplace(std::move(pr));
  note_regroup();
  for (GroupRun* g : involved) g->stopping = true;
  for (GroupRun* g : involved)
    if (!g->dissolved && g->members.empty()) dissolve_group(*g);
  try_apply_pending();
  maybe_validate();
}

void ClusterSim::try_apply_pending() {
  if (!pending_regroup_ || applying_pending_) return;
  applying_pending_ = true;

  // Materialize every plan whose machines are available. Jobs still draining
  // out of stopping groups join later (park_job routes them here) only if
  // the plan placed a job now: a plan none of whose jobs has parked yet is
  // dissolved at once, and its draining jobs later park into that dissolved
  // target and wait as paused (ROADMAP.md item 2, "Make rule (3) re-place
  // the jobs it drains").
  PendingRegroup& pr = *pending_regroup_;
  for (std::size_t i = 0; i < pr.decision.groups.size(); ++i) {
    if (pr.resolved[i]) continue;
    const core::GroupPlan& plan = pr.decision.groups[i];

    // Abandon plans none of whose jobs can ever arrive (finished, or claimed
    // by another group that is not draining).
    bool possible = false;
    for (core::JobId id : plan.jobs) {
      const SimJob& j = jobs_[id];
      if (j.state == core::JobState::kFinished) continue;
      if (j.group == nullptr || j.group->stopping) possible = true;
    }
    if (!possible || plan.machines == 0) {
      pr.resolved[i] = true;
      continue;
    }
    if (plan.machines > free_machines_) continue;

    pr.targets[i] = form_planned_group(plan.jobs, plan.machines);
    pr.resolved[i] = true;
  }

  // Complete once every plan is resolved and every drained group is gone.
  bool done = pr.involved.empty();
  for (bool r : pr.resolved)
    if (!r) done = false;
  if (done) pending_regroup_.reset();
  applying_pending_ = false;
  if (done) maybe_start_profiling();
  // Whatever machines the pending plans do not need can serve the idle pool
  // right away (reserved machines are excluded inside).
  schedule_on_spare_machines();
}

void ClusterSim::on_job_profiled(SimJob& job) {
  set_state(job, core::JobState::kProfiled);
  if (!initial_schedule_done_) {
    // Wait until the whole initial batch has profiles, then run Algorithm 1
    // over everything. (Arrived jobs in kWaiting are exactly the waiting
    // index; kProfiling implies arrived.)
    const bool all_profiled =
        waiting_by_submit_.empty() && jobs_in(core::JobState::kProfiling) == 0;
    if (all_profiled) run_initial_harmony_schedule();
    return;  // keeps iterating in its bootstrap group meanwhile
  }

  // Steady state (§IV-B4 arrival rule).
  const auto idle = idle_sched_jobs();
  const RunningView view = running_view();
  const core::RegroupAction action = call_scheduler(
      [&] { return core::regroup_on_arrival(sched_view(job), idle, view.groups); });

  if (action.kind == core::RegroupAction::Kind::kAddToGroup &&
      action.group_index < view.owners.size()) {
    GroupRun* target = view.owners[action.group_index];
    if (job.group == target) {
      set_state(job, core::JobState::kRunning);
      settle_group_prediction(*target);
      record_group_prediction(*target);
      return;
    }
    if (job.group != nullptr) park_job(job, core::JobState::kProfiled);
    // park_job may already have routed the job into a pending regroup's
    // target group; only place it ourselves if it is still idle.
    if (job.group == nullptr && fits_without_spill(*target, job)) {
      note_regroup(&job, target);
      settle_group_prediction(*target);
      place_job_in_group(job, *target, /*with_migration_delay=*/true);
      record_group_prediction(*target);
      maybe_validate();
    }
    return;
  }
  // Wait: leave the profiling group and pause.
  if (job.group != nullptr) park_job(job, core::JobState::kProfiled);
  schedule_on_spare_machines();
}

void ClusterSim::run_initial_harmony_schedule() {
  initial_schedule_done_ = true;
  // Pool: everything profiled so far, queue order. Before this first pass a
  // job runs only as kProfiling in a bootstrap group, so no job is kRunning
  // and the idle view is the whole pool.
  HARMONY_DCHECK(jobs_in(core::JobState::kRunning) == 0)
      << jobs_in(core::JobState::kRunning) << " jobs run before the first Algorithm 1 pass";
  const auto pool = idle_sched_jobs();
  if (pool.empty()) return;

  core::ScheduleDecision decision =
      call_scheduler([&] { return core::schedule(pool, config_.machines); });

  // Tear down every bootstrap group; decision groups form as drains finish.
  begin_pending(std::move(decision), live_groups());
}

void ClusterSim::apply_decision(const core::ScheduleDecision& decision) {
  // Additive application: only idle (group-less) jobs are placed; a job that
  // something else claimed in the meantime is skipped.
  note_regroup();
  for (const core::GroupPlan& plan : decision.groups) {
    if (plan.jobs.empty() || plan.machines == 0) continue;
    const std::size_t m = std::min(plan.machines, free_machines_);
    if (m == 0) break;
    // Forming a group with nothing to place would still use up a group id.
    const bool placeable = std::any_of(plan.jobs.begin(), plan.jobs.end(), [&](core::JobId id) {
      const SimJob& job = jobs_[id];
      return job.state != core::JobState::kFinished && job.group == nullptr;
    });
    if (placeable) form_planned_group(plan.jobs, m);
  }
  maybe_start_profiling();
  maybe_validate();
}

void ClusterSim::on_job_finished(SimJob& job, const GroupRun* left) {
  switch (config_.grouping) {
    case GroupingPolicy::kIsolated: {
      // The finished job's dedicated group dissolves; queued jobs take over.
      dissolve_emptied_groups(/*skip_stopping=*/false);
      try_schedule_isolated();
      return;
    }
    case GroupingPolicy::kRandom: {
      dissolve_emptied_groups(/*skip_stopping=*/false);
      try_schedule_naive();
      return;
    }
    case GroupingPolicy::kOneGroup: {
      dissolve_emptied_groups(/*skip_stopping=*/false);
      return;
    }
    case GroupingPolicy::kHarmony:
      break;
  }

  // Clean up emptied groups first.
  dissolve_emptied_groups(/*skip_stopping=*/true);

  if (pending_regroup_) {
    // A regroup is already in flight; just keep spare machines busy.
    schedule_on_spare_machines();
    return;
  }

  // Locate the group the job left (it may just have been dissolved).
  const RunningView view = running_view();
  if (view.groups.empty()) {
    // Nothing running: restart from the idle pool if anything is left.
    schedule_on_spare_machines();
    maybe_start_profiling();
    return;
  }

  // Map the finished job's former group into the view index space.
  std::size_t group_index = 0;
  for (std::size_t i = 0; i < view.owners.size(); ++i)
    if (view.owners[i] == left) group_index = i;

  const auto idle = idle_sched_jobs();
  const core::RegroupAction action = call_scheduler([&] {
    return core::regroup_on_finish(sched_view(job), group_index, idle, view.groups,
                                   free_machines_);
  });

  switch (action.kind) {
    case core::RegroupAction::Kind::kNone:
      break;
    case core::RegroupAction::Kind::kReplace: {
      if (action.group_index < view.owners.size()) {
        GroupRun* target = view.owners[action.group_index];
        settle_group_prediction(*target);
        for (const core::SchedJob& r : action.replacements) {
          SimJob& repl = jobs_[r.id];
          if (repl.group != nullptr || repl.state == core::JobState::kFinished) continue;
          if (!fits_without_spill(*target, repl)) continue;
          place_job_in_group(repl, *target, /*with_migration_delay=*/true);
        }
        note_regroup(&job, target);
        record_group_prediction(*target);
        maybe_validate();
      }
      break;
    }
    case core::RegroupAction::Kind::kReschedule: {
      // Damp churn: full reschedules pay drain and migration costs, so they
      // are rate-limited; the cheap kReplace repairs are not.
      if (sim_.now() - last_reschedule_time_ < kRescheduleCooldownSec) break;
      std::vector<GroupRun*> involved;
      for (std::size_t idx : action.groups_involved)
        if (idx < view.owners.size()) involved.push_back(view.owners[idx]);
      if (involved.empty()) break;
      last_reschedule_time_ = sim_.now();
      begin_pending(action.decision, std::move(involved));
      break;
    }
    case core::RegroupAction::Kind::kAddToGroup:
      break;  // not produced by on_job_finish
  }
  maybe_start_profiling();
  schedule_on_spare_machines();
  expand_groups_with_free_machines();
}

// ---------------------------------------------------------------------------
// Baseline scheduling drivers

void ClusterSim::try_schedule_isolated() {
  for (;;) {
    // FIFO head = front of the submit-ordered index. (The old scan kept the
    // first-encountered job among submit ties, i.e. the lowest id — exactly
    // the (submit_time, id) minimum.)
    if (waiting_by_submit_.empty()) return;
    SimJob* next = &jobs_[waiting_by_submit_.front()];

    std::size_t m = baselines::isolated_dop(next->spec.profile());
    m = std::max(m, next->spec.min_machines_without_spill(kMachineSpec));
    m = std::min(m, config_.machines);
    if (m > free_machines_) return;  // FIFO head-of-line blocking
    GroupRun& g = create_group(m);
    place_job_in_group(*next, g, /*with_migration_delay=*/false);
    group_dops_.add(static_cast<double>(m));
    group_sizes_.add(1.0);
    record_group_prediction(g);
  }
}

void ClusterSim::try_schedule_naive() {
  // Naive co-location: FIFO queue (in seeded shuffled order) chopped into
  // fixed-size groups; each group gets just enough machines to fit in memory.
  std::vector<SimJob*> waiting = waiting_jobs_by_submit();
  if (waiting.empty()) return;
  if (config_.naive_grouping_seed != 0) {
    Rng shuffle_rng(config_.naive_grouping_seed);
    shuffle_rng.shuffle(waiting);
  }

  std::size_t cursor = 0;
  bool scheduled_nothing_yet = live_groups().empty();
  while (cursor < waiting.size()) {
    const std::size_t take = std::min(kNaiveJobsPerGroup, waiting.size() - cursor);
    // All-arrived batches form full groups; a short tail only schedules when
    // nothing else will arrive to fill it (approximated: schedule anyway).
    double mem_needed = 0.0;
    std::size_t compute_need = 2;
    for (std::size_t i = 0; i < take; ++i) {
      const WorkloadSpec& s = waiting[cursor + i]->spec;
      mem_needed +=
          s.input_bytes() * core::kInputMemExpansion + s.model_bytes() * core::kModelMemExpansion;
      compute_need = std::max(compute_need, baselines::isolated_dop(s.profile()));
    }
    // Naive co-location's whole point is consolidation: the k jobs share the
    // allocation the largest of them would have received alone (Gandiva-style
    // packing), stretched only if their summed memory would OOM outright.
    const auto mem_machines = static_cast<std::size_t>(std::ceil(
        mem_needed / (config_.naive_pack_occupancy * kMachineSpec.memory_bytes)));
    std::size_t m = std::clamp<std::size_t>(std::max(mem_machines, compute_need), 2,
                                            config_.machines);
    if (m > free_machines_) {
      if (!scheduled_nothing_yet || cursor + take < waiting.size()) {
        // Backfill: skip the blocked chunk and try the next one.
        cursor += take;
        continue;
      }
      m = std::max<std::size_t>(1, free_machines_);  // forced (may OOM)
      if (m == 0) return;
    }
    scheduled_nothing_yet = false;
    GroupRun& g = create_group(m);
    for (std::size_t i = 0; i < take; ++i)
      place_job_in_group(*waiting[cursor + i], g, /*with_migration_delay=*/false);
    group_dops_.add(static_cast<double>(m));
    group_sizes_.add(static_cast<double>(take));
    record_group_prediction(g);
    cursor += take;
  }
}

// ---------------------------------------------------------------------------
// Metrics

void ClusterSim::record_group_prediction(GroupRun& group) {
  core::GroupShape shape;
  shape.machines = group.machines;
  for (core::JobId id : group.members) {
    if (jobs_[id].state != core::JobState::kRunning) continue;
    shape.jobs.push_back(sched_view(jobs_[id]).profile);
  }
  if (shape.jobs.empty() || shape.machines == 0) {
    group.predicted_titr = 0.0;
    return;
  }
  group.predicted_titr = core::PerfModel::group_iteration_time(shape);
  group.predicted_util = core::PerfModel::group_utilization(shape);
  // Perf-model cross-check hook: expose the model's belief about this group
  // (predicted T_itr and which lane bounds it) to the trace so the analysis
  // engine can score predictions against measured behaviour (Fig. 13-style).
  if (obs::Tracer::enabled())
    obs::Tracer::prediction(obs::ClockDomain::kSim, sim_.now() * kTraceUs,
                            static_cast<std::uint32_t>(group.id),
                            group.predicted_titr * kTraceUs,
                            core::PerfModel::group_bound(shape) == core::Bound::kCpu);
  group.predict_start = sim_.now();
  group.cpu_busy_at_predict = group.cpu->work_served();
  group.net_busy_at_predict = group.net->work_served();
  group.actual_iteration_times = RunningStats{};
}

void ClusterSim::settle_group_prediction(GroupRun& group) {
  if (group.predicted_titr <= 0.0) return;
  const double elapsed = sim_.now() - group.predict_start;
  if (elapsed < 2.0 * group.predicted_titr || group.actual_iteration_times.size() < 3)
    return;
  const double actual_titr = group.actual_iteration_times.mean();
  prediction_errors_.group_iteration_rel_error.add(
      relative_error(actual_titr, group.predicted_titr));

  const double u_cpu = (group.cpu->work_served() - group.cpu_busy_at_predict) / elapsed;
  const double u_net = (group.net->work_served() - group.net_busy_at_predict) / elapsed;
  const double err = 0.5 * (std::abs(u_cpu - group.predicted_util.cpu) +
                            std::abs(u_net - group.predicted_util.net));
  prediction_errors_.utilization_rel_error.add(
      err / std::max(0.5 * (group.predicted_util.cpu + group.predicted_util.net), 1e-9));
  group.predicted_titr = 0.0;
}

void ClusterSim::sample_utilization() {
  const double window = kUtilSampleWindowSec;
  double cpu_busy_machines = 0.0;
  double net_busy_machines = 0.0;
  std::size_t running_jobs = 0;
  std::size_t running_groups = 0;
  // The one compaction point, which frees the dissolved groups: no event
  // handler is walking the list or holding a group here.
  std::erase_if(groups_, [](const std::unique_ptr<GroupRun>& g) { return g->dissolved; });
  for (const auto& g : groups_) {
    const double cpu_now = g->cpu->work_served();
    const double net_now = g->net->work_served();
    const double m = static_cast<double>(g->machines);
    cpu_busy_machines += m * std::min(1.0, (cpu_now - g->last_cpu_busy) / window);
    net_busy_machines += m * std::min(1.0, (net_now - g->last_net_busy) / window);
    g->last_cpu_busy = cpu_now;
    g->last_net_busy = net_now;
    if (!g->members.empty()) {
      ++running_groups;
      running_jobs += g->members.size();
    }
  }
  const double total = static_cast<double>(config_.machines);
  // run() arms the sampler at one window from time 0 and the recurring slot
  // re-arms at t + window, so firing k lands at the integer 60·k, exact.
  HARMONY_DCHECK(sim_.now() == UtilizationTimeline::time_of(timeline_.values().size()))
      << "utilization sample at " << sim_.now() << " is off the window grid";
  timeline_.add(core::Utilization{cpu_busy_machines / total, net_busy_machines / total});
  if (config_.debug_trace) {
    std::string groups_desc;
    for (const auto& g : groups_)
      groups_desc += " [" + std::to_string(g->members.size()) + "j/" +
                     std::to_string(g->machines) + "m" + (g->stopping ? "!" : "") + "]";
    std::fprintf(stderr,
                 "t=%7.0f cpu=%.2f net=%.2f free=%zu wait=%zu paused=%zu idleprof=%zu "
                 "done=%zu pend=%d%s\n",
                 sim_.now(), cpu_busy_machines / total, net_busy_machines / total, free_machines_,
                 waiting_by_submit_.size(), jobs_in(core::JobState::kPaused),
                 profiled_ungrouped_count_, jobs_in(core::JobState::kFinished),
                 pending_regroup_ ? 1 : 0, groups_desc.c_str());
  }
  if (running_jobs > 0) {
    concurrent_jobs_sum_ += static_cast<double>(running_jobs);
    concurrent_groups_sum_ += static_cast<double>(running_groups);
    ++concurrency_windows_;
  }
  // Sampled once per window rather than per event so the hot loop stays clean.
  static obs::HistogramMetric& queue_depth =
      obs::MetricsRegistry::instance().histogram("sim.event_queue_depth", 0.0, 4096.0, 64);
  queue_depth.observe(static_cast<double>(sim_.pending()));
}

// ---------------------------------------------------------------------------

RunSummary ClusterSim::run() {
  summary_ = RunSummary{};
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    SimJob* j = &jobs_[i];
    sim_.schedule_at(arrivals_[i], [this, j] { on_job_arrival(*j); });
  }
  // The sampler fires once per window from the simulator's recurring slot,
  // off the heap, while anything is active or still to come.
  sim_.schedule_recurring(sim_.now() + kUtilSampleWindowSec, kUtilSampleWindowSec, [this] {
    sample_utilization();
    return jobs_in(core::JobState::kFinished) < jobs_.size();
  });
  sim_.run(200'000'000ULL);

  for (const auto& g : groups_)
    if (!g->dissolved) settle_group_prediction(*g);
  maybe_validate();

  double first_arrival = arrivals_.empty() ? 0.0 : arrivals_.front();
  for (double a : arrivals_) first_arrival = std::min(first_arrival, a);
  summary_.makespan = summary_.max_finish() - first_arrival;
  summary_.avg_util = timeline_.average_until(summary_.makespan);
  const double total = gc_lost_seconds_ + comp_base_seconds_;
  summary_.gc_time_fraction = total > 0.0 ? gc_lost_seconds_ / total : 0.0;

  auto& reg = obs::MetricsRegistry::instance();
  reg.gauge("sim.events_fired").set(static_cast<double>(sim_.events_fired()));
  reg.gauge("sim.makespan_sec").set(summary_.makespan);
  reg.gauge("sim.mean_jct_sec").set(summary_.mean_jct());
  reg.gauge("sim.regroup_events").set(static_cast<double>(summary_.regroup_events));
  reg.gauge("sim.sched_invocations").set(static_cast<double>(sched_invocations_));
  reg.gauge("sim.sched_wall_seconds").set(sched_wall_seconds_);
  reg.gauge("sim.oom_events").set(static_cast<double>(summary_.oom_events));
  return summary_;
}

// Same left fold from 0.0 and the same division SampleSet::mean() performs,
// so the means are bit-identical to averaging stored samples.
double ClusterSim::avg_concurrent_jobs() const {
  return concurrency_windows_ > 0
             ? concurrent_jobs_sum_ / static_cast<double>(concurrency_windows_)
             : 0.0;
}
double ClusterSim::avg_concurrent_groups() const {
  return concurrency_windows_ > 0
             ? concurrent_groups_sum_ / static_cast<double>(concurrency_windows_)
             : 0.0;
}

AlphaStats ClusterSim::alpha_stats() const {
  AlphaStats st;
  if (alpha_samples_.empty()) return st;
  st.mean = alpha_samples_.mean();
  st.min = alpha_samples_.min();
  st.max = alpha_samples_.max();
  for (std::size_t i = 0; i < jobs_.size(); ++i)
    if (job_alpha_[i] >= 0.999 || job_model_spilled_[i] != 0) ++st.jobs_at_one;
  return st;
}

bool co_location_ooms(const std::vector<WorkloadSpec>& jobs, std::size_t machines,
                      const cluster::MachineSpec& spec) {
  double resident = 0.0;
  for (const WorkloadSpec& s : jobs) resident += s.resident_bytes(machines, 0.0);
  return cluster::oom(resident / spec.memory_bytes);
}

}  // namespace harmony::exp
