// Online profiler (§IV-B1).
//
// Workers report the measured durations of each COMP and COMM subtask along
// with the group's machine count; the profiler folds them into
// moving-average estimates and exposes DoP-normalized JobProfiles to the
// scheduler. Subtask execution keeps contention out of the measurements, so
// a small number of samples suffices ("profiled metrics of subtasks can be
// meaningfully reused, while being updated using moving averages").
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "harmony/job.h"

namespace harmony::core {

// Weight of a new sample in the moving averages.
inline constexpr double kProfileEmaAlpha = 0.3;
// Samples needed before a job graduates from profiling to profiled.
inline constexpr std::size_t kProfileMinSamples = 3;

class Profiler {
 public:
  // Records one iteration's measurements for `job` while it ran on
  // `machines` machines: total COMP seconds and total COMM seconds.
  // Storage is dense by JobId (callers number their jobs 0..n-1), so it
  // grows to the largest id recorded; kNoJob is rejected.
  void record(JobId job, std::size_t machines, double t_cpu, double t_net);

  // Ids never recorded (or past the largest recorded id) read as having no
  // profile.
  bool has_profile(JobId job) const { return sample_count(job) > 0; }
  // Ready once kProfileMinSamples iterations have been folded in.
  bool is_profiled(JobId job) const { return sample_count(job) >= kProfileMinSamples; }

  // DoP-invariant profile (cpu_work = T_cpu * m from Eq. 2).
  std::optional<JobProfile> profile(JobId job) const {
    if (!has_profile(job)) return std::nullopt;
    const Entry& e = entries_[job];
    return JobProfile{e.cpu_work, e.t_net};
  }

  std::size_t sample_count(JobId job) const {
    return job < entries_.size() ? entries_[job].samples : 0;
  }

 private:
  // The two moving averages: the first sample sets each value, and each later
  // sample x moves it by kProfileEmaAlpha * (x - value).
  struct Entry {
    double cpu_work = 0.0;
    double t_net = 0.0;
    std::size_t samples = 0;
  };

  std::vector<Entry> entries_;  // by JobId; samples == 0 means no profile
};

}  // namespace harmony::core
