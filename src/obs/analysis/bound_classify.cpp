// Stage 2: per-group critical-path / bound classification.
//
// For each group the lifetime is cut into fixed windows and the measured
// busy-time of the two pipelined lanes (COMP vs PULL+PUSH service) decides
// which resource bounds the group in that window — the empirical counterpart
// of Eq. 1's arg-max. A window whose busier lane flips relative to the
// previous classified window is a bound-switch event, the behaviour
// Algorithm 1's model predicts when DoP or membership changes.
//
// Every scheduler kPrediction instant (predicted T_itr + predicted bound,
// recorded at decision time) is then scored against the window that followed
// it: measured bound from lane busy-time, measured T_itr as the mean of
// steady-state member iterations inside the horizon. The roll-up is the
// online model-error report (Fig. 13 style), and "does the measured bound
// agree with the scheduler's decision?" becomes a checkable number.
#include <algorithm>
#include <cmath>

#include "obs/analysis/internal.h"

namespace harmony::obs::analysis {

const char* to_string(Bound bound) noexcept {
  return bound == Bound::kCpu ? "cpu" : "net";
}

}  // namespace harmony::obs::analysis

namespace harmony::obs::analysis::internal {

namespace {

// Iteration samples a prediction needs inside its horizon to be scored.
constexpr std::size_t kMinPredictionSamples = 3;

PredictionCheck score_prediction(const GroupEvents& g, const TraceEvent& p,
                                 const AnalysisOptions& options) {
  PredictionCheck check;
  check.t_sec = start_sec(p);
  check.predicted_titr_sec = p.value / kUsPerSec;
  check.predicted_bound = p.bytes != 0 ? Bound::kCpu : Bound::kNet;

  // Horizon: long enough for a few full group cycles, at least one window.
  // The first predicted cycle after a placement is warm-up (reload stalls,
  // refilling pipelines), so both the busy-time window and the iteration
  // samples start one predicted T_itr after the decision.
  const double horizon =
      std::max(4.0 * check.predicted_titr_sec, options.window_sec);
  const double t0 = check.t_sec + check.predicted_titr_sec;
  const double t1 = std::min(check.t_sec + horizon, g.dissolved_sec);

  // Steady-state iteration samples: member iterations fully inside [t0, t1].
  double iter_sum = 0.0;
  std::size_t iter_n = 0;
  for (const TraceEvent* itr : g.iterations) {
    if (start_sec(*itr) < t0) continue;
    if (end_sec(*itr) > t1) break;
    iter_sum += itr->dur_us / kUsPerSec;
    ++iter_n;
  }

  const double comp_busy = busy_in(g.comps, t0, t1);
  const double comm_busy = busy_in(g.comms, t0, t1);
  if (iter_n < kMinPredictionSamples || comp_busy + comm_busy <= 0.0)
    return check;  // not enough signal: left unscored

  check.measured = true;
  check.measured_titr_sec = iter_sum / static_cast<double>(iter_n);
  check.measured_bound = comp_busy >= comm_busy ? Bound::kCpu : Bound::kNet;
  check.bound_agrees = check.measured_bound == check.predicted_bound;
  check.titr_rel_error =
      check.predicted_titr_sec > 0.0
          ? std::abs(check.measured_titr_sec - check.predicted_titr_sec) /
                check.predicted_titr_sec
          : 0.0;
  return check;
}

}  // namespace

void classify_bounds(const TraceIndex& index, RunAnalysis& out) {
  out.groups.clear();
  out.groups.reserve(index.groups.size());
  double rel_error_sum = 0.0;

  for (const auto& [id, ev] : index.groups) {
    GroupAnalysis group;
    group.group = id;
    group.created_sec = ev.created_sec;
    group.dissolved_sec = ev.dissolved_sec;
    group.machines = static_cast<std::size_t>(ev.machines);
    group.comp_busy_sec = busy_in(ev.comps, ev.created_sec, ev.dissolved_sec);
    group.comm_busy_sec = busy_in(ev.comms, ev.created_sec, ev.dissolved_sec);
    const double lifetime = ev.dissolved_sec - ev.created_sec;
    if (lifetime > 0.0) {
      group.busy_fraction_cpu = group.comp_busy_sec / lifetime;
      group.busy_fraction_net = group.comm_busy_sec / lifetime;
    }

    // Windowed classification over the group's lifetime. Windows with no lane
    // activity at all (drained, parked) are skipped — they carry no bound.
    const double w = out.options.window_sec;
    for (double t0 = ev.created_sec; t0 < ev.dissolved_sec; t0 += w) {
      const double t1 = std::min(t0 + w, ev.dissolved_sec);
      BoundWindow window;
      window.t0_sec = t0;
      window.t1_sec = t1;
      window.comp_busy_sec = busy_in(ev.comps, t0, t1);
      window.comm_busy_sec = busy_in(ev.comms, t0, t1);
      if (window.comp_busy_sec + window.comm_busy_sec <= 0.0) continue;
      window.bound =
          window.comp_busy_sec >= window.comm_busy_sec ? Bound::kCpu : Bound::kNet;
      if (!group.windows.empty() && group.windows.back().bound != window.bound) {
        group.switches.push_back(
            BoundSwitch{window.t0_sec, group.windows.back().bound, window.bound});
      }
      group.windows.push_back(window);
    }

    for (const TraceEvent* p : ev.predictions) {
      PredictionCheck check = score_prediction(ev, *p, out.options);
      ++out.predictions_total;
      if (check.measured) {
        ++out.predictions_scored;
        out.bound_agreements += check.bound_agrees;
        rel_error_sum += check.titr_rel_error;
      }
      group.predictions.push_back(check);
    }

    out.groups.push_back(std::move(group));
  }

  out.titr_mean_rel_error = out.predictions_scored > 0
                                ? rel_error_sum / static_cast<double>(out.predictions_scored)
                                : 0.0;
}

}  // namespace harmony::obs::analysis::internal
