// Internal plumbing shared by the analysis stages: the sorted, entity-indexed
// view of a trace that every stage walks. Not part of the public API.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/analysis/analysis.h"
#include "obs/trace.h"

namespace harmony::obs::analysis::internal {

inline constexpr double kUsPerSec = 1e6;

inline double start_sec(const TraceEvent& e) noexcept { return e.ts_us / kUsPerSec; }
inline double end_sec(const TraceEvent& e) noexcept {
  return (e.ts_us + e.dur_us) / kUsPerSec;
}

// Seconds of overlap between a span event and [t0, t1).
double overlap_sec(const TraceEvent& e, double t0_sec, double t1_sec) noexcept;
// Busy seconds of `spans` (sorted by start) inside [t0, t1).
double busy_in(const std::vector<const TraceEvent*>& spans, double t0_sec, double t1_sec);

struct JobEvents {
  std::uint32_t job = 0;
  // Spans sorted by start time, separated by kind (all in the index's domain).
  std::vector<const TraceEvent*> iterations;
  std::vector<const TraceEvent*> pulls;
  std::vector<const TraceEvent*> comps;
  std::vector<const TraceEvent*> pushes;
  std::vector<const TraceEvent*> reloads;
  std::vector<const TraceEvent*> checkpoints;
  double first_sec = 0.0;
  double last_sec = 0.0;
};

struct GroupEvents {
  std::uint32_t group = 0;
  std::vector<const TraceEvent*> comps;       // COMP service on this group
  std::vector<const TraceEvent*> comms;       // PULL + PUSH service
  std::vector<const TraceEvent*> iterations;  // member-job iterations
  std::vector<const TraceEvent*> predictions;
  double created_sec = -1.0;    // kGroupCreate ts, else first activity
  double dissolved_sec = -1.0;  // kGroupDissolve ts, else last activity
  std::uint64_t machines = 0;   // kGroupCreate payload
  double first_sec = 0.0;
  double last_sec = 0.0;
};

struct TraceIndex {
  ClockDomain clock = ClockDomain::kSim;
  std::vector<TraceEvent> events;  // dominant-domain events, sorted by start
  std::map<std::uint32_t, JobEvents> jobs;
  std::map<std::uint32_t, GroupEvents> groups;
  double start_sec = 0.0;
  double end_sec = 0.0;
};

// Sorts, picks the dominant clock domain, and buckets events by entity.
TraceIndex build_index(std::vector<TraceEvent> events);

// Stage 1: per-job, per-iteration phase attribution -> out.jobs,
// out.cluster_phases (iteration-interior phases + checkpoints).
void attribute_phases(const TraceIndex& index, RunAnalysis& out);

// Stage 2: per-group windowed bound classification, switch detection and
// prediction scoring -> out.groups and the model-error roll-up.
void classify_bounds(const TraceIndex& index, RunAnalysis& out);

// Stage 3: cluster roll-ups (utilization timeline, JCT CDF, stragglers),
// merging ground-truth totals when provided -> remaining RunAnalysis fields.
void rollup_cluster(const TraceIndex& index, const RunTotals* totals, RunAnalysis& out);

}  // namespace harmony::obs::analysis::internal
