// Oracle (§V-F): exhaustive search over all set-partitions of the job pool
// (and greedy machine allocation per partition) for the grouping that
// maximizes modelled cluster utilization. Exponential — the ground truth the
// scalable scheduler is compared against, feasible only for small job counts.
#pragma once

#include <cstdint>
#include <span>

#include "harmony/scheduler.h"

namespace harmony::baselines {

// Inputs beyond this size are refused (Bell numbers explode; Bell(12) ≈ 4.2M
// partitions is already seconds of work).
inline constexpr std::size_t kOracleMaxJobs = 12;

struct OracleResult {
  core::ScheduleDecision decision;
  // Set-partitions examined across every queue prefix.
  std::uint64_t partitions_examined = 0;
};

// Throws std::invalid_argument for more than kOracleMaxJobs jobs.
OracleResult oracle_schedule(std::span<const core::SchedJob> jobs, std::size_t machines);

}  // namespace harmony::baselines
