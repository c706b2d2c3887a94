// Stage 3: cluster roll-ups — utilization timeline, JCT CDF, stragglers —
// plus the merge of harness ground truth (RunTotals) into the per-job rows.
//
// Utilization is machine-weighted lane busy-time: in each window, every group
// alive in it contributes its creation-time DoP worth of machines, busy for
// the COMP (CPU) or PULL+PUSH (network) seconds its lanes served. DoP growth
// from tail expansion is not traced, so this is the creation-time
// approximation; the report labels it as such.
#include <algorithm>
#include <cmath>

#include "obs/analysis/internal.h"

namespace harmony::obs::analysis::internal {

namespace {

// Points on the reported JCT CDF.
constexpr std::size_t kCdfPoints = 20;
// Slowest jobs the straggler attribution reports.
constexpr std::size_t kTopStragglers = 5;

std::vector<CdfPoint> cdf_of(std::vector<double> samples) {
  std::vector<CdfPoint> cdf;
  if (samples.empty()) return cdf;
  std::sort(samples.begin(), samples.end());
  const double lo = samples.front();
  const double hi = samples.back();
  cdf.reserve(kCdfPoints);
  for (std::size_t i = 0; i < kCdfPoints; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(kCdfPoints - 1);
    const auto le = std::upper_bound(samples.begin(), samples.end(), x) - samples.begin();
    cdf.push_back(CdfPoint{x, static_cast<double>(le) / static_cast<double>(samples.size())});
  }
  return cdf;
}

}  // namespace

void rollup_cluster(const TraceIndex& index, const RunTotals* totals, RunAnalysis& out) {
  out.start_sec = index.start_sec;
  out.end_sec = index.end_sec;
  out.clock = index.clock;
  out.event_count = index.events.size();
  for (const TraceEvent& e : index.events) ++out.events_by_kind[to_string(e.kind)];

  // --- merge ground truth (or derive JCTs from the trace) -----------------
  out.has_totals = totals != nullptr;
  out.makespan_sec = totals ? totals->makespan_sec : index.end_sec - index.start_sec;
  for (JobAnalysis& job : out.jobs) {
    job.submit_sec = job.first_event_sec;
    job.finish_sec = job.last_event_sec;
    if (totals) {
      for (const RunTotals::JobOutcome& o : totals->jobs) {
        if (o.job == job.job) {
          job.submit_sec = o.submit_sec;
          job.finish_sec = o.finish_sec;
          break;
        }
      }
    }
    job.jct_sec = job.finish_sec - job.submit_sec;
    job.outside_iterations_sec = std::max(
        0.0, job.jct_sec - job.iteration_total_sec - job.phases.checkpoint);
  }

  // --- utilization timeline ----------------------------------------------
  const double w = out.options.window_sec;
  if (w > 0.0 && index.end_sec > index.start_sec) {
    const double origin = index.start_sec;
    const auto windows =
        static_cast<std::size_t>(std::ceil((index.end_sec - origin) / w));
    out.utilization.reserve(windows);
    for (std::size_t k = 0; k < windows; ++k) {
      UtilizationWindow uw;
      uw.t0_sec = origin + static_cast<double>(k) * w;
      uw.t1_sec = std::min(uw.t0_sec + w, index.end_sec);
      double machine_seconds = 0.0;
      double cpu_busy_machine_sec = 0.0;
      double net_busy_machine_sec = 0.0;
      for (const auto& [id, g] : index.groups) {
        const double live0 = std::max(uw.t0_sec, g.created_sec);
        const double live1 = std::min(uw.t1_sec, g.dissolved_sec);
        if (live1 <= live0) continue;
        ++uw.live_groups;
        const double m = static_cast<double>(std::max<std::uint64_t>(1, g.machines));
        machine_seconds += (live1 - live0) * m;
        cpu_busy_machine_sec += busy_in(g.comps, live0, live1) * m;
        net_busy_machine_sec += busy_in(g.comms, live0, live1) * m;
      }
      if (machine_seconds > 0.0) {
        uw.cpu = cpu_busy_machine_sec / machine_seconds;
        uw.net = net_busy_machine_sec / machine_seconds;
      }
      out.utilization.push_back(uw);
    }
  }

  // --- JCT CDF -------------------------------------------------------------
  std::vector<double> jcts;
  jcts.reserve(out.jobs.size());
  for (const JobAnalysis& job : out.jobs)
    if (job.jct_sec > 0.0) jcts.push_back(job.jct_sec);
  out.jct_cdf = cdf_of(std::move(jcts));

  // --- straggler attribution ----------------------------------------------
  double iter_sum = 0.0;
  std::size_t iter_jobs = 0;
  for (const JobAnalysis& job : out.jobs) {
    if (job.iterations == 0) continue;
    iter_sum += job.mean_iteration_sec;
    ++iter_jobs;
  }
  const double cluster_mean = iter_jobs > 0 ? iter_sum / static_cast<double>(iter_jobs) : 0.0;
  if (cluster_mean > 0.0) {
    std::vector<const JobAnalysis*> ranked;
    for (const JobAnalysis& job : out.jobs)
      if (job.iterations > 0) ranked.push_back(&job);
    std::sort(ranked.begin(), ranked.end(), [](const JobAnalysis* a, const JobAnalysis* b) {
      if (a->mean_iteration_sec != b->mean_iteration_sec)
        return a->mean_iteration_sec > b->mean_iteration_sec;
      return a->job < b->job;
    });
    const std::size_t top = std::min(kTopStragglers, ranked.size());
    out.stragglers.reserve(top);
    for (std::size_t i = 0; i < top; ++i) {
      const JobAnalysis& job = *ranked[i];
      StragglerRecord rec;
      rec.job = job.job;
      rec.mean_iteration_sec = job.mean_iteration_sec;
      rec.vs_cluster_mean = job.mean_iteration_sec / cluster_mean;
      rec.bottleneck = job.phases.dominant();
      out.stragglers.push_back(rec);
    }
  }
}

}  // namespace harmony::obs::analysis::internal
