// Definitions of ClusterSim's private per-job / per-group runtime records,
// shared between the event-loop translation unit (cluster_sim.cpp) and the
// deep invariant validators (cluster_sim_validate.cpp). Not part of the
// public surface — include only from exp/ implementation files.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/machine.h"
#include "cluster/memory_model.h"
#include "common/stats.h"
#include "exp/cluster_sim.h"
#include "harmony/spill_manager.h"
#include "sim/resource.h"

namespace harmony::exp {

// ---------------------------------------------------------------------------
// Constants every run shares: the simulated testbed and the fixed values of
// the scheduling policies. The memory, spill-cost, α-climb and profiler
// constants live next to their models.

// The simulated machine: the paper's m4.2xlarge testbed (§V-B).
inline constexpr cluster::MachineSpec kMachineSpec{};
// Lognormal noise (cv) on every simulated subtask duration.
inline constexpr double kSubtaskNoiseCv = 0.03;
// Interference penalty for contended execution (per extra concurrent task).
inline constexpr double kContentionPenalty = 0.08;
// Naive co-location degree: jobs sharing one machine pool.
inline constexpr std::size_t kNaiveJobsPerGroup = 3;
// Occupancy the α floor targets. Above the GC knee (0.7) but safely below the
// OOM line: mild GC is routinely cheaper than extra reloading, and the hill
// climb explores around this floor.
inline constexpr double kAlphaFloorOccupancy = 0.85;
// Concurrent jobs being profiled in steady state (§IV-B1).
inline constexpr std::size_t kMaxProfilingJobs = 4;
// Minimum simulated time between successive kReschedule regroups; cheap
// kReplace repairs are always allowed (churn damping).
inline constexpr double kRescheduleCooldownSec = 900.0;
// Iteration walls the α hill climb averages per observation (§IV-C).
inline constexpr std::size_t kAlphaWindowIterations = 8;

// kProfiled || kPaused: the jobs the idle view (idle_by_submit_) holds.
inline bool idle_state(core::JobState s) noexcept {
  return s == core::JobState::kProfiled || s == core::JobState::kPaused;
}

// Cold per-job record. The hot scalars the memory model reads on every
// iteration (spill ratio, model-spill flag, submit time) live in
// ClusterSim's dense struct-of-arrays indexed by JobId — see job_alpha_ and
// friends — so the occupancy walk touches packed doubles instead of striding
// through these records.
struct ClusterSim::SimJob {
  const WorkloadSpec& spec;  // ClusterSim::specs_[id]
  bool arrived = false;  // submission event has fired
  // Written only by ClusterSim::set_state.
  core::JobState state = core::JobState::kWaiting;
  std::size_t iterations_done = 0;
  std::size_t iters_in_group = 0;

  GroupRun* group = nullptr;
  bool in_flight = false;  // an iteration's subtasks are in the pipeline
  double reload_ready_at = 0.0;
  double iter_start_time = 0.0;
  // Systematic profile-error factors for Fig. 13a (1.0 = exact).
  double err_cpu = 1.0;
  double err_net = 1.0;
  // Subtask-noise stream: seeded at construction (the one draw Rng::fork
  // makes), built on the first subtask draw and released at finish, so only
  // live jobs hold an engine.
  std::uint64_t noise_seed = 0;
  std::unique_ptr<Rng> noise;

  // `arrived` and whether the job had a group, as of the last set_state
  // call. With `state` they are the snapshot set_state diffs the job's
  // current values against.
  bool indexed_arrived = false;
  bool indexed_grouped = false;

  SimJob(const WorkloadSpec& s, std::uint64_t seed) : spec(s), noise_seed(seed) {}

  Rng& noise_rng() {
    if (!noise) noise = std::make_unique<Rng>(noise_seed);
    return *noise;
  }
};

struct ClusterSim::GroupRun {
  std::size_t id = 0;
  std::vector<core::JobId> members;  // includes profiling visitors
  std::size_t machines = 0;
  bool stopping = false;
  bool dissolved = false;
  bool oom_recorded = false;

  // Memory state the pipeline reads on every COMP (occupancy) and PUSH
  // (spilling members share the disk), memoized by
  // ClusterSim::refresh_occupancy's member-order fold. It goes stale --
  // valid = false -- when a member joins or leaves, the machine count
  // changes, or a member's α or model-spill flag changes, and is refolded on
  // the next read.
  struct Occupancy {
    double occupancy = 0.0;    // resident bytes / machine memory
    std::size_t spilling = 0;  // members with α > 0
    bool valid = false;
  };
  Occupancy occ;

  // The group's two lanes: FIFO under pipelined execution, processor
  // sharing under contended execution (create_group picks).
  std::unique_ptr<sim::Resource> cpu;
  std::unique_ptr<sim::Resource> net;

  // Group-level spill control (§IV-C): one hill-climbed occupancy target per
  // group; every member's α is the smallest ratio fitting that target, so
  // ratios stay per-job while the climb is coordinated.
  std::optional<core::AlphaController> occ_ctl;
  WindowedAverage<kAlphaWindowIterations> recent_walls;
  std::size_t iters_since_alpha_update = 0;

  // Utilization sampling state.
  double last_cpu_busy = 0.0;
  double last_net_busy = 0.0;

  // Prediction bookkeeping (Fig. 13b).
  double predicted_titr = 0.0;
  core::Utilization predicted_util;
  double predict_start = 0.0;
  double cpu_busy_at_predict = 0.0;
  double net_busy_at_predict = 0.0;
  RunningStats actual_iteration_times;
};

}  // namespace harmony::exp
