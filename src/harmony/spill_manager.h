// Dynamic data reloading (§IV-C).
//
// With many co-located jobs, keeping every job's input partition resident
// blows past machine memory (OOM) or drives the managed runtime into heavy
// GC. Harmony keeps a per-job fraction α_j = B_disk / B_total of input blocks
// on disk, reloading the disk-side blocks in the background while other jobs'
// COMP subtasks occupy the CPU. α_j is tuned by hill climbing: raising α
// costs reload/deserialization time, lowering it costs GC pressure.
//
// Two pieces live here:
//  * spill_costs — a pure function turning (α, job, group, machine) into
//    resident bytes, reload time and deserialization overhead — shared by
//    the scheduler's predictions and the simulator's "ground truth";
//  * AlphaController — the per-job hill-climbing loop, seeded from a memory
//    estimate, that adapts α to minimize observed iteration time.
#pragma once

#include <cstddef>

#include "cluster/machine.h"

namespace harmony::core {

// ---------------------------------------------------------------------------

struct SpillCosts {
  double resident_bytes = 0.0;     // job's per-machine memory footprint
  double reload_seconds = 0.0;     // disk read time per iteration (per machine)
  double deserialize_seconds = 0.0;  // CPU cost of re-materializing blocks
};

// Fixed per-machine runtime overhead per job (buffers, task state).
inline constexpr double kPerJobOverheadBytes = 96.0 * cluster::kMiB;
// CPU seconds to deserialize one byte (measured from the PS runtime's
// serializer, which bench_ps_microbench's BM_DeserializeDoubles times:
// ~1.6 GB/s on one core).
inline constexpr double kDeserializeSecPerByte = 1.0 / (1.6e9);
// Managed-runtime expansion: resident object graphs (parsed objects, boxing,
// indexing) are larger than the raw serialized bytes that move to/from disk.
// Calibrated so Fig. 4's NMF+MLR+Lasso co-location on 16 machines overflows
// 32 GB while each pair still fits.
inline constexpr double kInputMemExpansion = 2.2;
inline constexpr double kModelMemExpansion = 2.0;

// Costs of running job (input/model bytes cluster-wide) with disk ratio
// `alpha` on a group of `machines` machines of the given spec.
SpillCosts spill_costs(double input_bytes, double model_bytes, double alpha,
                       std::size_t machines, const cluster::MachineSpec& spec);

// ---------------------------------------------------------------------------

// The hill climb over a group's occupancy target. The bounds are occupancy
// targets, not disk ratios: with many co-tenants each job's GC cost is mostly
// externalized (occupancy is shared), so the climb may not walk far below the
// GC knee into heavy reloading, and it stays under the OOM line
// (cluster::kOomOccupancy).
inline constexpr double kAlphaStep = 0.05;         // initial hill-climb step
inline constexpr double kAlphaMinStep = 0.01;      // step shrinks to this before settling
inline constexpr double kAlphaTolerance = 0.01;    // relative objective change treated as noise
inline constexpr double kAlphaMin = 0.40;
inline constexpr double kAlphaMax = 0.93;

class AlphaController {
 public:
  // Starts the climb at `initial_alpha`, clamped to [kAlphaMin, kAlphaMax].
  explicit AlphaController(double initial_alpha);

  // Seeds α from the memory estimate (§IV-C: "determine the initial value by
  // estimating the memory use"): the smallest α that keeps estimated
  // occupancy at or below `target_occupancy` of the per-machine budget.
  static double initial_alpha(double input_bytes, double model_bytes, std::size_t machines,
                              double available_bytes_per_machine, double target_occupancy,
                              const cluster::MachineSpec& spec);

  double alpha() const noexcept { return alpha_; }

  // Feeds one observation of the objective (iteration time including GC and
  // reload stalls) and returns the α to use next. Classic hill climbing:
  // keep direction while improving, otherwise back up, flip and halve step.
  double observe(double objective);

  std::size_t observations() const noexcept { return observations_; }

 private:
  double alpha_;
  double step_;
  int direction_ = +1;
  double best_objective_ = -1.0;  // <0 = no observation yet
  std::size_t observations_ = 0;
};

}  // namespace harmony::core
