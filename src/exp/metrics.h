// Run-level metric collection: utilization timelines, JCT/makespan summary,
// and prediction-error records for Fig. 11/13.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "harmony/perf_model.h"

namespace harmony::exp {

// Windowed utilization trace; ClusterSim samples it at 1-minute intervals
// (the paper's cadence, kUtilSampleWindowSec).
class UtilizationTimeline {
 public:
  void add_sample(double time_sec, core::Utilization value);

  const std::vector<double>& times() const noexcept { return times_; }
  const std::vector<core::Utilization>& values() const noexcept { return values_; }

  core::Utilization average() const;
  // Average restricted to [0, horizon_sec] (used to exclude the tail where
  // few jobs remain).
  core::Utilization average_until(double horizon_sec) const;

  // "time<TAB>cpu<TAB>net" rows downsampled to at most `max_rows`.
  std::string tsv(std::size_t max_rows = 60) const;

 private:
  std::vector<double> times_;
  std::vector<core::Utilization> values_;
};

// One completed job's outcome.
struct JobOutcome {
  std::uint32_t job = 0;
  double submit_time = 0.0;
  double finish_time = 0.0;
  double jct() const noexcept { return finish_time - submit_time; }
};

struct RunSummary {
  std::string label;
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
