#include "harmony/spill_manager.h"

#include <algorithm>
#include <stdexcept>

namespace harmony::core {

SpillCosts spill_costs(double input_bytes, double model_bytes, double alpha,
                       std::size_t machines, const cluster::MachineSpec& spec) {
  if (machines == 0) throw std::invalid_argument("spill_costs: zero machines");
  alpha = std::clamp(alpha, 0.0, 1.0);
  const double m = static_cast<double>(machines);
  const double input_per_machine = input_bytes / m;
  const double model_per_machine = model_bytes / m;
  const double disk_side = alpha * input_per_machine;

  SpillCosts out;
  // Resident bytes use the managed-runtime expansion factors (live object
  // graphs); reload and deserialization move the raw serialized bytes.
  out.resident_bytes = (1.0 - alpha) * input_per_machine * kInputMemExpansion +
                       model_per_machine * kModelMemExpansion + kPerJobOverheadBytes;
  out.reload_seconds = disk_side / spec.disk_bytes_per_sec;
  out.deserialize_seconds = disk_side * kDeserializeSecPerByte;
  return out;
}

AlphaController::AlphaController(double initial_alpha)
    : alpha_(std::clamp(initial_alpha, kAlphaMin, kAlphaMax)), step_(kAlphaStep) {}

double AlphaController::initial_alpha(double input_bytes, double model_bytes,
                                      std::size_t machines,
                                      double available_bytes_per_machine,
                                      double target_occupancy,
                                      const cluster::MachineSpec& spec) {
  // Smallest α (fewest disk blocks, §IV-C) whose estimated occupancy stays
  // within the target; scanned at block-ish granularity.
  for (double alpha = 0.0; alpha <= 1.0; alpha += 0.05) {
    const SpillCosts c = spill_costs(input_bytes, model_bytes, alpha, machines, spec);
    if (c.resident_bytes <= target_occupancy * available_bytes_per_machine) return alpha;
  }
  return 1.0;
}

double AlphaController::observe(double objective) {
  ++observations_;
  if (best_objective_ < 0.0) {
    // First observation: establish the baseline and probe in the current
    // direction.
    best_objective_ = objective;
    alpha_ = std::clamp(alpha_ + direction_ * step_, kAlphaMin, kAlphaMax);
    return alpha_;
  }

  const double rel_change = (best_objective_ - objective) / std::max(best_objective_, 1e-12);
  if (rel_change > kAlphaTolerance) {
    // Improved: keep walking the same way.
    best_objective_ = objective;
  } else if (rel_change < -kAlphaTolerance) {
    // Got worse: back out the last move, flip direction, shrink the step.
    alpha_ = std::clamp(alpha_ - direction_ * step_, kAlphaMin, kAlphaMax);
    direction_ = -direction_;
    step_ = std::max(kAlphaMinStep, step_ * 0.5);
  } else {
    // Within noise: treat as flat, gently shrink the step.
    best_objective_ = std::min(best_objective_, objective);
    step_ = std::max(kAlphaMinStep, step_ * 0.75);
  }
  alpha_ = std::clamp(alpha_ + direction_ * step_, kAlphaMin, kAlphaMax);
  return alpha_;
}

}  // namespace harmony::core
