// The evaluation workload catalog (Table I + Fig. 9).
//
// 4 applications x 2 datasets x 10 hyper-parameter settings = 80 jobs. Input
// and model sizes are Table I's; per-iteration COMP work and COMM time are
// synthesized per application family so that, at the paper's reference DoP of
// 16, iteration times span ~1-20 minutes and computation ratios spread across
// ~0.1-0.9 (Fig. 9), with each family's compute/communication character
// matching its Fig. 2/4 behaviour (LDA compute-heavy, MLR model-heavy, ...).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/machine.h"
#include "harmony/job.h"
#include "harmony/scheduler.h"

namespace harmony::exp {

struct WorkloadSpec {
  core::JobId id = core::kNoJob;
  std::string app;      // "NMF", "LDA", "MLR", "Lasso"
  std::string dataset;  // "Netflix64x", "PubMed", ...
  std::size_t hyper_index = 0;

  double input_gb = 0.0;
  double model_gb = 0.0;

  // Ground-truth per-iteration costs (the simulator's hidden truth; the
  // profiler only ever sees noisy measurements of these).
  double cpu_work = 0.0;  // machine-seconds of COMP per iteration
  double t_net = 0.0;     // seconds of COMM per iteration
  std::size_t iterations = 0;  // iterations to convergence

  double input_bytes() const noexcept { return input_gb * cluster::kGiB; }
  double model_bytes() const noexcept { return model_gb * cluster::kGiB; }

  // Resident bytes per machine at DoP m with disk ratio alpha (input share
  // only; the spill manager owns the full accounting).
  double resident_bytes(std::size_t machines, double alpha = 0.0) const noexcept;

  // Smallest DoP whose resident footprint stays below `fraction` of machine
  // memory without any spilling. The default targets the GC knee (just below
  // cluster::kGcThreshold), where non-spilling systems must sit to
  // avoid collector thrash.
  std::size_t min_machines_without_spill(const cluster::MachineSpec& spec,
                                         double fraction = 0.65) const noexcept;

  core::JobProfile profile() const noexcept { return core::JobProfile{cpu_work, t_net}; }
  core::SchedJob sched_job() const noexcept { return core::SchedJob{id, profile()}; }
};

// The full 80-job catalog, deterministic in `seed`.
std::vector<WorkloadSpec> make_catalog(std::uint64_t seed = 2021);

// §V-D splits: the 60 most computation-heavy / communication-heavy jobs by
// comp ratio at DoP 16.
std::vector<WorkloadSpec> comp_intensive_subset(const std::vector<WorkloadSpec>& all,
                                                std::size_t count = 60);
std::vector<WorkloadSpec> comm_intensive_subset(const std::vector<WorkloadSpec>& all,
                                                std::size_t count = 60);

// Renders Table I.
std::string table1(const std::vector<WorkloadSpec>& catalog);

}  // namespace harmony::exp
