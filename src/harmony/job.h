// Job metadata shared by the scheduler, the simulator and the real runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace harmony::core {

using JobId = std::uint32_t;
constexpr JobId kNoJob = UINT32_MAX;

// Lifecycle from §III: submitted jobs wait in the queue, get profiled on a
// group, then run/pause under scheduler control until convergence.
enum class JobState {
  kWaiting,
  kProfiling,
  kProfiled,  // profiled but not currently placed in a running group
  kRunning,
  kPaused,
  kFinished,
};

const char* to_string(JobState s) noexcept;

// The scheduler-facing description of a job's resource behaviour.
//
// The profiler reports (T_cpu, T_net, m); because COMP time scales as 1/m
// (Eq. 2) we store the DoP-invariant quantity cpu_work = T_cpu * m
// (machine-seconds per iteration) and recover T_cpu at any DoP.
struct JobProfile {
  double cpu_work = 0.0;  // machine-seconds of COMP per iteration
  double t_net = 0.0;     // seconds of COMM per iteration (DoP-invariant)

  double t_cpu(std::size_t machines) const noexcept {
    return machines == 0 ? std::numeric_limits<double>::infinity()
                         : cpu_work / static_cast<double>(machines);
  }
  double t_itr(std::size_t machines) const noexcept { return t_cpu(machines) + t_net; }
  // Fraction of an isolated iteration spent computing, at DoP `machines`.
  double comp_ratio(std::size_t machines) const noexcept {
    const double itr = t_itr(machines);
    return itr > 0.0 ? t_cpu(machines) / itr : 0.0;
  }

  bool valid() const noexcept { return cpu_work > 0.0 && t_net > 0.0; }
};

}  // namespace harmony::core
