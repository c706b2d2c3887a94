// Run-level metric collection: utilization timelines, JCT/makespan summary,
// and prediction-error records for Fig. 11/13.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "harmony/perf_model.h"

namespace harmony::exp {

// Utilization sampling window: the paper's one-minute cadence (§V).
inline constexpr double kUtilSampleWindowSec = 60.0;

// Windowed utilization trace. ClusterSim appends one sample per window, the
// first at kUtilSampleWindowSec, so sample i is at time_of(i) and no
// timestamp is stored. The samples sit in a deque, which grows by fixed
// blocks: a long run never copies the whole trace into a doubled buffer.
class UtilizationTimeline {
 public:
  void add(core::Utilization value) { values_.push_back(value); }

  const std::deque<core::Utilization>& values() const noexcept { return values_; }
  static double time_of(std::size_t i) noexcept {
    return kUtilSampleWindowSec * static_cast<double>(i + 1);
  }

  // Average restricted to [0, horizon_sec] (used to exclude the tail where
  // few jobs remain).
  core::Utilization average_until(double horizon_sec) const;

  // "time<TAB>cpu<TAB>net" rows downsampled to at most `max_rows`.
  std::string tsv(std::size_t max_rows = 60) const;

 private:
  std::deque<core::Utilization> values_;
};

// One completed job's outcome.
struct JobOutcome {
  std::uint32_t job = 0;
  double submit_time = 0.0;
  double finish_time = 0.0;
  double jct() const noexcept { return finish_time - submit_time; }
};

struct RunSummary {
  std::vector<JobOutcome> jobs;
  double makespan = 0.0;
  core::Utilization avg_util;
  double gc_time_fraction = 0.0;      // mean fraction of time lost to GC
  double migration_overhead_sec = 0.0;  // total pause time due to regrouping
  std::size_t regroup_events = 0;
  std::size_t oom_events = 0;

  double mean_jct() const;
  double max_finish() const;
};

// Prediction-vs-actual records (Fig. 13b).
struct PredictionErrors {
  SampleSet group_iteration_rel_error;
  SampleSet utilization_rel_error;
};

}  // namespace harmony::exp
