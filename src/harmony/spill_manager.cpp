#include "harmony/spill_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace harmony::core {

BlockManager::BlockManager(double total_bytes, double block_bytes) {
  if (total_bytes < 0.0 || block_bytes <= 0.0)
    throw std::invalid_argument("BlockManager: bad sizes");
  double remaining = total_bytes;
  while (remaining > 0.0) {
    const double b = std::min(block_bytes, remaining);
    blocks_.push_back(Block{b, false});
    remaining -= b;
  }
  if (blocks_.empty()) blocks_.push_back(Block{0.0, false});
}

std::size_t BlockManager::disk_blocks() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(blocks_.begin(), blocks_.end(), [](const Block& b) { return b.on_disk; }));
}

double BlockManager::alpha() const noexcept {
  return blocks_.empty()
             ? 0.0
             : static_cast<double>(disk_blocks()) / static_cast<double>(blocks_.size());
}

double BlockManager::memory_bytes() const noexcept {
  double sum = 0.0;
  for (const Block& b : blocks_)
    if (!b.on_disk) sum += b.bytes;
  return sum;
}

double BlockManager::disk_bytes() const noexcept {
  double sum = 0.0;
  for (const Block& b : blocks_)
    if (b.on_disk) sum += b.bytes;
  return sum;
}

void BlockManager::set_alpha(double target_alpha) {
  target_alpha = std::clamp(target_alpha, 0.0, 1.0);
  const auto want = static_cast<std::size_t>(
      std::llround(target_alpha * static_cast<double>(blocks_.size())));
  std::size_t have = disk_blocks();
  double spilled = 0.0;
  double reloaded = 0.0;
  // Spill from the back (coldest), reload from the front of the disk region.
  for (std::size_t i = blocks_.size(); i-- > 0 && have < want;) {
    if (!blocks_[i].on_disk) {
      blocks_[i].on_disk = true;
      spilled += blocks_[i].bytes;
      ++have;
    }
  }
  for (std::size_t i = 0; i < blocks_.size() && have > want; ++i) {
    if (blocks_[i].on_disk) {
      blocks_[i].on_disk = false;
      reloaded += blocks_[i].bytes;
      --have;
    }
  }
  auto& reg = obs::MetricsRegistry::instance();
  if (spilled > 0.0)
    reg.counter("spill.block_bytes_spilled").add(static_cast<std::uint64_t>(spilled));
  if (reloaded > 0.0)
    reg.counter("spill.block_bytes_reloaded").add(static_cast<std::uint64_t>(reloaded));
}

void BlockManager::corrupt_block_for_test(std::size_t index) {
  blocks_.at(index).on_disk = !blocks_.at(index).on_disk;
}

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
