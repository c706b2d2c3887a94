// Isolated baseline (§V-A): every job runs alone on a dedicated, disjoint set
// of machines — the Optimus/SLAQ-style allocation. The policy maximizes each
// job's CPU utilization (the quantity that actually advances training) by
// keeping DoP low enough that COMP dominates COMM; exp::ClusterSim places the
// jobs FIFO at that DoP and queues them when machines run out.
#pragma once

#include <cstddef>

#include "harmony/job.h"

namespace harmony::baselines {

// A job's DoP is the largest m with t_cpu(m) >= kIsolatedCpuBias * t_net:
// raising the bias trades parallelism for CPU utilization.
inline constexpr double kIsolatedCpuBias = 1.5;
inline constexpr std::size_t kIsolatedMaxMachines = 32;

// Largest DoP that keeps the job CPU-dominant (>= 1, <= kIsolatedMaxMachines).
std::size_t isolated_dop(const core::JobProfile& profile);

}  // namespace harmony::baselines
