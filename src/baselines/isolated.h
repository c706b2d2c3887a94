// Isolated baseline (§V-A): every job runs alone on a dedicated, disjoint set
// of machines — the Optimus/SLAQ-style allocation. The policy maximizes each
// job's CPU utilization (the quantity that actually advances training) by
// keeping DoP low enough that COMP dominates COMM; exp::ClusterSim places the
// jobs FIFO at that DoP and queues them when machines run out.
#pragma once

#include <cstddef>

#include "harmony/job.h"

namespace harmony::baselines {

class IsolatedScheduler {
 public:
  struct Params {
    // A job's DoP is the largest m with t_cpu(m) >= cpu_bias * t_net: raising
    // the bias trades parallelism for CPU utilization.
    double cpu_bias = 1.5;
    std::size_t max_machines_per_job = 32;
  };

  IsolatedScheduler() : IsolatedScheduler(Params{}) {}
  explicit IsolatedScheduler(Params params) : params_(params) {}

  // Largest DoP that keeps the job CPU-dominant (>= 1).
  std::size_t pick_dop(const core::JobProfile& profile) const;

 private:
  Params params_;
};

}  // namespace harmony::baselines
