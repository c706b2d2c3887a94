// Deep invariant validators for ClusterSim (--validate / corruption tests).
//
// Every validator cross-checks incrementally maintained state against a
// brute-force recomputation from first principles, using the same predicates
// the incremental code keys off. All checks are read-only and consume no
// randomness, so running them cannot perturb a simulation.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/sorted_view.h"
#include "exp/cluster_sim_internal.h"

namespace harmony::exp {

namespace {

// Mirrors the member-state transitions: a job inside a group is either
// running, still profiling, or profiled-and-awaiting the initial schedule
// (bootstrap groups keep iterating, §IV-B1).
bool groupable_state(core::JobState s) noexcept {
  return s == core::JobState::kRunning || s == core::JobState::kProfiling ||
         s == core::JobState::kProfiled;
}

}  // namespace

check::ValidationReport ClusterSim::validate_state() const {
  check::Validation v("cluster_sim");

  // -- machine conservation -------------------------------------------------
  // Σ machines over non-dissolved groups + free pool == cluster size.
  // Stopping groups keep their machines until the drain completes; dissolve
  // is the only release point and zeroes the group's count.
  std::size_t held = 0;
  for (const GroupRun& g : groups_) {
    if (g.dissolved) {
      HARMONY_VALIDATE(v, g.machines == 0)
          << check::group(g.id) << "dissolved group still holds " << g.machines
          << " machines";
      continue;
    }
    HARMONY_VALIDATE(v, g.machines >= 1)
        << check::group(g.id) << "live group holds zero machines";
    held += g.machines;
  }
  HARMONY_VALIDATE(v, held + free_machines_ == config_.machines)
      << "machine conservation broken: groups hold " << held << " + " << free_machines_
      << " free != cluster size " << config_.machines
      << " (a machine is over-allocated or leaked)";

  // -- group <-> job membership ---------------------------------------------
  for (const GroupRun& g : groups_) {
    if (g.dissolved) continue;
    std::unordered_set<core::JobId> seen;
    for (core::JobId id : g.members) {
      HARMONY_VALIDATE(v, id < jobs_.size())
          << check::group(g.id) << "member id " << id << " out of range";
      if (id >= jobs_.size()) continue;
      HARMONY_VALIDATE(v, seen.insert(id).second)
          << check::group(g.id) << check::job(id) << "job listed twice in one group";
      const SimJob& j = jobs_[id];
      HARMONY_VALIDATE(v, j.group == &g)
          << check::group(g.id) << check::job(id)
          << "membership not bidirectional: group lists the job but the job points at "
          << (j.group ? "group " + std::to_string(j.group->id) : std::string("no group"));
      HARMONY_VALIDATE(v, groupable_state(j.state))
          << check::group(g.id) << check::job(id) << "grouped job in state "
          << core::to_string(j.state);
    }
  }
  for (const SimJob& j : jobs_) {
    if (j.group == nullptr) continue;
    HARMONY_VALIDATE(v, !j.group->dissolved)
        << check::job(j.spec.id) << check::group(j.group->id)
        << "job points at a dissolved group";
    const auto& members = j.group->members;
    HARMONY_VALIDATE(v, std::count(members.begin(), members.end(), j.spec.id) == 1)
        << check::job(j.spec.id) << check::group(j.group->id)
        << "membership not bidirectional: job points at a group that does not list it";
  }

  // -- job-state sanity -----------------------------------------------------
  for (const SimJob& j : jobs_) {
    const core::JobId id = j.spec.id;
    const double alpha = job_alpha_[id];
    HARMONY_VALIDATE(v, !(j.in_flight && j.group == nullptr))
        << check::job(id) << "in-flight iteration with no group";
    if (j.state == core::JobState::kFinished) {
      HARMONY_VALIDATE(v, j.group == nullptr)
          << check::job(id) << "finished job still grouped";
      HARMONY_VALIDATE(v, j.finish_time >= arrivals_[id])
          << check::job(id) << "finish time " << j.finish_time
          << " precedes submit time " << arrivals_[id];
      HARMONY_VALIDATE(v, j.noise == nullptr)
          << check::job(id) << "finished job still holds its noise engine";
    }
    HARMONY_VALIDATE(v, alpha >= 0.0 && alpha <= 1.0)
        << check::job(id) << "disk ratio out of range: alpha = " << alpha
        << " (skewed spill share)";
    if (!config_.spill_enabled)
      HARMONY_VALIDATE(v, alpha == 0.0)
          << check::job(id) << "spilling disabled but alpha = " << alpha;
    if (job_model_spilled_[id] != 0)
      HARMONY_VALIDATE(v, alpha >= 0.999)
          << check::job(id) << "model spill active at alpha = " << alpha
          << " (input data must be fully spilled first)";
  }

  // -- spill shares vs the cost model's feasibility bound -------------------
  // refresh_alpha picks the smallest α whose resident footprint fits the
  // group's occupancy target × per-job memory share; when nothing fits it
  // pins α = 1 and either spills the model or (resident ≤ kGcThreshold ×
  // share) runs at the GC knee. Either way a non-model-spilled member's
  // resident bytes never exceed max(target, kGcThreshold) × share. Shares
  // only grow between refreshes (members leaving), so the bound holds with
  // current membership.
  if (config_.spill_enabled && !config_.fixed_alpha) {
    for (const GroupRun& g : groups_) {
      if (g.dissolved || g.members.empty()) continue;
      const double target = g.occ_ctl ? g.occ_ctl->alpha() : kAlphaFloorOccupancy;
      const double bound_occ = std::max(target, cluster::kGcThreshold);
      const double share = kMachineSpec.memory_bytes / static_cast<double>(g.members.size());
      for (core::JobId id : g.members) {
        if (job_model_spilled_[id] != 0) continue;
        const double resident = job_resident_bytes(jobs_[id], g.machines);
        HARMONY_VALIDATE(v, resident <= bound_occ * share * (1.0 + 1e-9))
            << check::job(id) << check::group(g.id) << "resident bytes " << resident
            << " exceed the occupancy bound " << bound_occ << " x share " << share
            << " at alpha = " << job_alpha_[id]
            << " (byte accounting skewed vs alpha shares)";
      }
    }
  }

  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };

  // -- group occupancy memo vs a fresh member-order fold --------------------
  // Same fold, same order, so a valid memo matches bit for bit; a mismatch
  // means a membership, machine-count or spill-state change skipped the
  // group's invalidation.
  for (const GroupRun& g : groups_) {
    if (!g.occ.valid) continue;
    double resident = 0.0;
    std::size_t spilling = 0;
    for (core::JobId id : g.members) {
      if (id >= jobs_.size()) continue;  // reported by the membership checks
      resident += job_resident_bytes(jobs_[id], g.machines);
      if (job_alpha_[id] > 0.0) ++spilling;
    }
    const double occupancy = resident / kMachineSpec.memory_bytes;
    HARMONY_VALIDATE(v, same_bits(g.occ.occupancy, occupancy) && g.occ.spilling == spilling)
        << check::group(g.id) << "occupancy memo holds " << g.occ.occupancy << " with "
        << g.occ.spilling << " spilling members but a fresh fold over its "
        << g.members.size() << " members gives " << occupancy << " with " << spilling
        << " (stale occupancy memo: missed invalidation)";
  }

  // -- job-state indexes vs a from-scratch rebuild --------------------------
  std::vector<core::JobId> want_waiting;
  std::vector<core::JobId> want_idle;
  std::array<std::size_t, kJobStates> want_in_state{};
  std::size_t want_profiled_ungrouped = 0;
  for (const SimJob& j : jobs_) {
    if (j.arrived && j.state == core::JobState::kWaiting)
      want_waiting.push_back(j.spec.id);
    if (j.state == core::JobState::kProfiled || j.state == core::JobState::kPaused)
      want_idle.push_back(j.spec.id);
    ++want_in_state[static_cast<std::size_t>(j.state)];
    want_profiled_ungrouped +=
        j.state == core::JobState::kProfiled && j.group == nullptr;
  }
  // Both indexes must hold exactly their job sets, sorted by the pinned
  // (submit_time, id) total order.
  const auto by_submit = [this](core::JobId a, core::JobId b) {
    return submit_order_less(a, b);
  };
  std::sort(want_waiting.begin(), want_waiting.end(), by_submit);
  std::sort(want_idle.begin(), want_idle.end(), by_submit);
  HARMONY_VALIDATE(v, std::equal(waiting_by_submit_.begin(), waiting_by_submit_.end(),
                                 want_waiting.begin(), want_waiting.end()))
      << "waiting index (" << waiting_by_submit_.size()
      << " ids) diverges from a from-scratch rebuild sorted by (submit, id) ("
      << want_waiting.size() << " ids): bad index entry or broken tie-break order";
  std::vector<core::JobId> idle_ids;
  idle_ids.reserve(idle_by_submit_.size());
  for (const core::SchedJob& e : idle_by_submit_) idle_ids.push_back(e.id);
  HARMONY_VALIDATE(v, idle_ids == want_idle)
      << "idle index (" << idle_ids.size()
      << " ids) diverges from a from-scratch rebuild sorted by (submit, id) ("
      << want_idle.size() << " ids): bad index entry or broken tie-break order";
  // Each idle entry is the scheduler's view of its job, bit for bit: a missed
  // refresh would otherwise only show as decisions that silently drift.
  for (const core::SchedJob& e : idle_by_submit_) {
    if (e.id >= jobs_.size()) continue;  // reported by the id check above
    const core::JobProfile want = sched_view(jobs_[e.id]).profile;
    const bool fresh =
        same_bits(e.profile.cpu_work, want.cpu_work) && same_bits(e.profile.t_net, want.t_net);
    HARMONY_VALIDATE(v, fresh)
        << check::job(e.id) << "idle view holds profile (cpu_work " << e.profile.cpu_work
        << ", t_net " << e.profile.t_net << ") but sched_view gives (" << want.cpu_work
        << ", " << want.t_net << "): stale entry (missed profile refresh)";
  }
  for (std::size_t s = 0; s < kJobStates; ++s)
    HARMONY_VALIDATE(v, jobs_in_state_[s] == want_in_state[s])
        << core::to_string(static_cast<core::JobState>(s)) << " count " << jobs_in_state_[s]
        << " != recount " << want_in_state[s];
  HARMONY_VALIDATE(v, profiled_ungrouped_count_ == want_profiled_ungrouped)
      << "profiled-ungrouped counter " << profiled_ungrouped_count_ << " != recount "
      << want_profiled_ungrouped;

  // -- active-groups list ---------------------------------------------------
  // The list may lag (the sampler drops dissolved entries) but must hold
  // every live group exactly once and only pointers groups_ owns.
  {
    std::unordered_map<const GroupRun*, std::size_t> storage_count;
    for (const GroupRun* g : active_groups_) ++storage_count[g];
    std::unordered_set<const GroupRun*> owned;
    for (const GroupRun& g : groups_) owned.insert(&g);
    // Walk the list and the owning deque — both deterministic — and only
    // *look up* the pointer-keyed map, so no failure report depends on
    // pointer-hash iteration order.
    for (const GroupRun* g : active_groups_)
      HARMONY_VALIDATE(v, owned.contains(g))
          << "active-groups cache holds a pointer groups_ does not own";
    for (const GroupRun& g : groups_) {
      const auto it = storage_count.find(&g);
      const std::size_t n = it == storage_count.end() ? 0 : it->second;
      if (n > 0)
        HARMONY_VALIDATE(v, n == 1)
            << check::group(g.id) << "active-groups cache lists a group " << n << " times";
      if (!g.dissolved)
        HARMONY_VALIDATE(v, n > 0)
            << check::group(g.id) << "live group missing from the active-groups cache";
    }
  }

  // -- pending regroup ------------------------------------------------------
  if (pending_regroup_) {
    const PendingRegroup& pr = *pending_regroup_;
    const std::size_t plans = pr.decision.groups.size();
    HARMONY_VALIDATE(v, pr.targets.size() == plans && pr.resolved.size() == plans)
        << "pending regroup arrays out of step with the decision (" << pr.targets.size()
        << "/" << pr.resolved.size() << " vs " << plans << " plans)";
    for (std::size_t i = 0; i < std::min(plans, pr.targets.size()); ++i)
      if (pr.targets[i] != nullptr)
        HARMONY_VALIDATE(v, i < pr.resolved.size() && pr.resolved[i])
            << check::group(pr.targets[i]->id)
            << "materialized target group not marked resolved (plan " << i << ")";
    for (const auto& [id, plan] : common::sorted_view(pr.job_plan))
      HARMONY_VALIDATE(v, plan < plans)
          << check::job(id) << "pending plan index " << plan << " out of range";
    HARMONY_VALIDATE(v, pr.reserved_machines() <= config_.machines)
        << "pending regroup reserves " << pr.reserved_machines()
        << " machines on a cluster of " << config_.machines;
    for (const GroupRun* g : pr.involved)
      HARMONY_VALIDATE(v, g->stopping || g->dissolved)
          << check::group(g->id) << "group involved in a regroup is not draining";
  }

  // -- event heap -----------------------------------------------------------
  sim_.validate(v);

  return v.report();
}

void ClusterSim::maybe_validate() {
  if (!config_.validate) return;
  ++validations_run_;
  check::ValidationReport report = validate_state();
  if (report.ok()) return;
  // Diagnostics go to stderr so --validate cannot perturb golden stdout.
  std::fprintf(stderr, "harmony-sim: state validation failed at t=%.3f:\n%s",
               sim_.now(), report.to_string().c_str());
  check::fail(std::move(report.failures.front()));
}

void ClusterSim::corrupt_for_test(Corruption kind) {
  switch (kind) {
    case Corruption::kBadIndexEntry: {
      // Insert a job that is not waiting into the waiting index, at its
      // submit-order position.
      for (const SimJob& j : jobs_) {
        if (j.arrived && j.state == core::JobState::kWaiting) continue;
        update_submit_index(waiting_by_submit_, j.spec.id, /*member=*/true);
        return;
      }
      break;
    }
    case Corruption::kOverAllocatedMachine: {
      // A group grabs a machine the free pool never released.
      for (GroupRun& g : groups_)
        if (!g.dissolved) {
          ++g.machines;
          return;
        }
      break;
    }
    case Corruption::kSkewedSpillAlpha: {
      // Raw write on purpose: bypasses set_alpha, so no range check and no
      // occupancy-memo invalidation sees it (the validator must catch both).
      for (const SimJob& j : jobs_)
        if (j.group != nullptr) {
          job_alpha_[j.spec.id] = 1.5;
          return;
        }
      break;
    }
    case Corruption::kStaleIdleProfile: {
      // An idle entry keeps an old profile, as if a profiler sample had not
      // been folded into the view.
      if (idle_by_submit_.empty()) break;
      idle_by_submit_.front().profile.cpu_work *= 1.5;
      return;
    }
    case Corruption::kStaleOccupancyMemo: {
      // A group's memo keeps a value no fold over its members gives, as if
      // a member had left without invalidating it.
      for (GroupRun& g : groups_)
        if (!g.dissolved && !g.members.empty()) {
          refresh_occupancy(g);
          g.occ.occupancy += 0.25;
          return;
        }
      break;
    }
    case Corruption::kBrokenMembership: {
      // Group forgets a member that still points at it.
      for (GroupRun& g : groups_)
        if (!g.dissolved && !g.members.empty()) {
          g.members.erase(g.members.begin());
          return;
        }
      break;
    }
  }
  throw std::logic_error("corrupt_for_test: no state eligible for this corruption");
}

void ClusterSim::schedule_corruption_for_test(double t, Corruption kind) {
  sim_.schedule_at(t, [this, kind] {
    corrupt_for_test(kind);
    maybe_validate();
  });
}

}  // namespace harmony::exp
