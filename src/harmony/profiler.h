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

#include "common/stats.h"
#include "harmony/job.h"

namespace harmony::core {

class Profiler {
 public:
  struct Params {
    double ema_alpha = 0.3;
    // Samples needed before a job graduates from profiling to profiled.
    std::size_t min_samples = 3;
  };

  Profiler() : Profiler(Params{}) {}
  explicit Profiler(Params params) : params_(params) {}

  // Records one iteration's measurements for `job` while it ran on
  // `machines` machines: total COMP seconds and total COMM seconds.
  // Storage is dense by JobId (callers number their jobs 0..n-1), so it
  // grows to the largest id recorded; kNoJob is rejected.
  void record(JobId job, std::size_t machines, double t_cpu, double t_net);

  // Ids never recorded (or forgotten, or past the largest recorded id) read
  // as having no profile.
  bool has_profile(JobId job) const { return sample_count(job) > 0; }
  // Ready once min_samples iterations have been folded in.
  bool is_profiled(JobId job) const { return sample_count(job) >= params_.min_samples; }

  // DoP-invariant profile (cpu_work = T_cpu * m from Eq. 2).
  std::optional<JobProfile> profile(JobId job) const {
    if (!has_profile(job)) return std::nullopt;
    const Entry& e = entries_[job];
    return JobProfile{e.cpu_work.value(), e.t_net.value()};
  }

  std::size_t sample_count(JobId job) const {
    return job < entries_.size() ? entries_[job].samples : 0;
  }
  void forget(JobId job);

 private:
  struct Entry {
    MovingAverage cpu_work;
    MovingAverage t_net;
    std::size_t samples = 0;
    explicit Entry(double alpha) : cpu_work(alpha), t_net(alpha) {}
  };

  Params params_;
  std::vector<Entry> entries_;  // by JobId; samples == 0 means no profile
};

}  // namespace harmony::core
