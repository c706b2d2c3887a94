// Trace analysis engine (read-only interpretation of the observability data).
//
// Consumes a vector of TraceEvents — from Tracer::snapshot() in-process, or
// re-loaded from an exported Chrome trace (see report.h) — plus optional
// ground-truth run totals, and derives the quantities the paper's evaluation
// is built on:
//
//  * per-job, per-iteration phase attribution: how each iteration's wall time
//    splits into PULL / COMP / PUSH service, spill-reload stalls, checkpoint
//    pauses and sync-wait (lane queueing), reconciling exactly with the
//    iteration spans;
//  * per-group bound classification: CPU-bound vs network-bound per time
//    window from measured lane busy-time (the bound-switch at the heart of
//    Algorithm 1's performance model, §IV), with bound-switch events
//    surfaced and every scheduler kPrediction instant scored against what
//    actually happened (Fig. 13-style model-error report);
//  * cluster roll-ups: utilization timelines, the JCT CDF, per-lane
//    busy/idle heatmap rows and straggler attribution (which subtask chain
//    bounds each job's iterations).
//
// Everything here is a pure function of its inputs: analysis never touches
// the live Tracer or MetricsRegistry (enforced by tools/lint.py's
// read-only-analysis rule), so running it cannot perturb a measurement, and
// identical traces produce identical — byte-identical, via report.h —
// results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace harmony::obs::analysis {

// Which lane bounds a group in a window. Mirrors core::Bound (Eq. 1's
// arg-max) without depending on the scheduler library: obs stays a leaf.
enum class Bound : std::uint8_t { kCpu, kNet };

const char* to_string(Bound bound) noexcept;

// Seconds of an iteration attributed to each phase. `wait` is the residual:
// iteration wall time not covered by any recorded service/stall span, i.e.
// time queued behind co-located jobs on the group's lanes (sync-wait).
struct PhaseTotals {
  double pull = 0.0;
  double comp = 0.0;
  double push = 0.0;
  double reload = 0.0;
  double checkpoint = 0.0;
  double wait = 0.0;

  double total() const noexcept {
    return pull + comp + push + reload + checkpoint + wait;
  }
  void add(const PhaseTotals& o) noexcept {
    pull += o.pull;
    comp += o.comp;
    push += o.push;
    reload += o.reload;
    checkpoint += o.checkpoint;
    wait += o.wait;
  }
  // Largest attributed component ("pull"/"comp"/"push"/"reload"/
  // "checkpoint"/"wait"); ties resolve to the earlier pipeline stage.
  const char* dominant() const noexcept;
};

struct JobAnalysis {
  std::uint32_t job = 0;
  std::size_t iterations = 0;
  double first_event_sec = 0.0;  // start of the job's earliest event
  double last_event_sec = 0.0;   // end of the job's latest event
  PhaseTotals phases;            // summed over all iterations (+ checkpoints)
  double iteration_total_sec = 0.0;  // Σ iteration wall times
  double mean_iteration_sec = 0.0;
  // Ground truth when RunTotals was provided, else derived from the trace
  // (submit = first event start, finish = last event end).
  double submit_sec = 0.0;
  double finish_sec = 0.0;
  double jct_sec = 0.0;
  // JCT not inside any iteration or checkpoint pause: profiling queue time,
  // parked time during regroups, arrival-to-schedule latency.
  double outside_iterations_sec = 0.0;
};

struct BoundWindow {
  double t0_sec = 0.0;
  double t1_sec = 0.0;
  double comp_busy_sec = 0.0;  // COMP service inside the window
  double comm_busy_sec = 0.0;  // PULL + PUSH service inside the window
  Bound bound = Bound::kCpu;
};

struct BoundSwitch {
  double t_sec = 0.0;  // start of the window that flipped
  Bound from = Bound::kCpu;
  Bound to = Bound::kNet;
};

// One scheduler kPrediction instant scored against measured behaviour in the
// horizon that follows it.
struct PredictionCheck {
  double t_sec = 0.0;
  double predicted_titr_sec = 0.0;
  Bound predicted_bound = Bound::kCpu;
  double measured_titr_sec = 0.0;  // 0 when too few iterations followed
  Bound measured_bound = Bound::kCpu;
  bool measured = false;       // enough post-prediction activity to score
  bool bound_agrees = false;   // valid when measured
  double titr_rel_error = 0.0;  // |measured - predicted| / predicted
};

struct GroupAnalysis {
  std::uint32_t group = 0;
  double created_sec = 0.0;
  double dissolved_sec = 0.0;  // last activity when no dissolve was traced
  std::size_t machines = 0;    // DoP at creation (expansion is not traced)
  double comp_busy_sec = 0.0;
  double comm_busy_sec = 0.0;
  double busy_fraction_cpu = 0.0;  // busy / lifetime, the heatmap row value
  double busy_fraction_net = 0.0;
  std::vector<BoundWindow> windows;
  std::vector<BoundSwitch> switches;
  std::vector<PredictionCheck> predictions;
};

struct UtilizationWindow {
  double t0_sec = 0.0;
  double t1_sec = 0.0;
  double cpu = 0.0;  // machine-weighted comp-lane busy fraction
  double net = 0.0;
  std::size_t live_groups = 0;
};

struct CdfPoint {
  double x = 0.0;
  double f = 0.0;
};

struct StragglerRecord {
  std::uint32_t job = 0;
  double mean_iteration_sec = 0.0;
  double vs_cluster_mean = 0.0;     // mean iteration / cluster mean iteration
  const char* bottleneck = "comp";  // dominant phase of the job's iterations
};

// Ground truth from the harness (RunSummary-shaped, but decoupled from
// src/exp so obs stays a leaf library). When absent, the analysis derives
// JCT-like quantities from the trace alone and flags them as such.
struct RunTotals {
  double makespan_sec = 0.0;
  struct JobOutcome {
    std::uint32_t job = 0;
    double submit_sec = 0.0;
    double finish_sec = 0.0;
  };
  std::vector<JobOutcome> jobs;
};

struct AnalysisOptions {
  // Window for bound classification and utilization roll-ups; the paper
  // samples utilization at 1-minute intervals.
  double window_sec = 60.0;
};

struct RunAnalysis {
  AnalysisOptions options;
  ClockDomain clock = ClockDomain::kSim;
  bool has_totals = false;
  double start_sec = 0.0;  // earliest event start
  double end_sec = 0.0;    // latest event end
  double makespan_sec = 0.0;  // from totals, else end - start
  std::size_t event_count = 0;
  std::map<std::string, std::size_t> events_by_kind;

  std::vector<JobAnalysis> jobs;      // sorted by job id
  std::vector<GroupAnalysis> groups;  // sorted by group id
  PhaseTotals cluster_phases;         // Σ over jobs

  std::vector<UtilizationWindow> utilization;
  std::vector<CdfPoint> jct_cdf;
  std::vector<StragglerRecord> stragglers;

  // Model-error roll-up over every scored prediction (Fig. 13 style).
  std::size_t predictions_total = 0;
  std::size_t predictions_scored = 0;
  std::size_t bound_agreements = 0;
  double titr_mean_rel_error = 0.0;

  double bound_agreement() const noexcept {
    return predictions_scored > 0
               ? static_cast<double>(bound_agreements) /
                     static_cast<double>(predictions_scored)
               : 0.0;
  }
};

// Runs the full pipeline over `events` (any order; the engine sorts a copy).
// Events from a clock domain other than the dominant one are ignored, so a
// mixed sim+wall trace analyzes its majority domain. `totals` may be null.
RunAnalysis analyze(std::vector<TraceEvent> events, const RunTotals* totals = nullptr,
                    const AnalysisOptions& options = {});

}  // namespace harmony::obs::analysis
