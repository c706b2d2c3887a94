#include "obs/analysis/internal.h"

#include <algorithm>

namespace harmony::obs::analysis::internal {

double overlap_sec(const TraceEvent& e, double t0_sec, double t1_sec) noexcept {
  const double s = std::max(start_sec(e), t0_sec);
  const double t = std::min(end_sec(e), t1_sec);
  return t > s ? t - s : 0.0;
}

double busy_in(const std::vector<const TraceEvent*>& spans, double t0_sec, double t1_sec) {
  double busy = 0.0;
  for (const TraceEvent* s : spans) {
    if (start_sec(*s) >= t1_sec) break;
    busy += overlap_sec(*s, t0_sec, t1_sec);
  }
  return busy;
}

TraceIndex build_index(std::vector<TraceEvent> events) {
  TraceIndex index;

  // Majority clock domain wins; ties go to sim (the deterministic domain).
  std::size_t sim_count = 0;
  for (const TraceEvent& e : events) sim_count += e.clock == ClockDomain::kSim;
  index.clock =
      2 * sim_count >= events.size() ? ClockDomain::kSim : ClockDomain::kWall;
  std::erase_if(events, [&](const TraceEvent& e) { return e.clock != index.clock; });

  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  index.events = std::move(events);
  if (!index.events.empty()) {
    index.start_sec = start_sec(index.events.front());
    index.end_sec = index.start_sec;
  }

  for (const TraceEvent& e : index.events) {
    index.end_sec = std::max(index.end_sec, end_sec(e));

    if (e.job != kNoEntity) {
      auto [jit, job_fresh] = index.jobs.try_emplace(e.job);
      JobEvents& j = jit->second;
      if (job_fresh) {
        j.job = e.job;
        j.first_sec = start_sec(e);
        j.last_sec = end_sec(e);
      }
      j.first_sec = std::min(j.first_sec, start_sec(e));
      j.last_sec = std::max(j.last_sec, end_sec(e));
      switch (e.kind) {
        case EventKind::kIteration: j.iterations.push_back(&e); break;
        case EventKind::kSubtaskPull: j.pulls.push_back(&e); break;
        case EventKind::kSubtaskComp: j.comps.push_back(&e); break;
        case EventKind::kSubtaskPush: j.pushes.push_back(&e); break;
        case EventKind::kReload: j.reloads.push_back(&e); break;
        case EventKind::kCheckpoint: j.checkpoints.push_back(&e); break;
        default: break;
      }
    }

    if (e.group != kNoEntity) {
      auto [git, group_fresh] = index.groups.try_emplace(e.group);
      GroupEvents& g = git->second;
      if (group_fresh) {
        g.group = e.group;
        g.first_sec = start_sec(e);
        g.last_sec = end_sec(e);
      }
      g.first_sec = std::min(g.first_sec, start_sec(e));
      g.last_sec = std::max(g.last_sec, end_sec(e));
      switch (e.kind) {
        case EventKind::kSubtaskComp: g.comps.push_back(&e); break;
        case EventKind::kSubtaskPull:
        case EventKind::kSubtaskPush: g.comms.push_back(&e); break;
        case EventKind::kIteration: g.iterations.push_back(&e); break;
        case EventKind::kPrediction: g.predictions.push_back(&e); break;
        case EventKind::kGroupCreate:
          g.created_sec = start_sec(e);
          g.machines = e.bytes;
          break;
        case EventKind::kGroupDissolve: g.dissolved_sec = start_sec(e); break;
        default: break;
      }
    }
  }

  for (auto& [id, g] : index.groups) {
    if (g.created_sec < 0.0) g.created_sec = g.first_sec;
    if (g.dissolved_sec < 0.0) g.dissolved_sec = g.last_sec;
  }
  return index;
}

}  // namespace harmony::obs::analysis::internal
