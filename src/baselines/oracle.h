// Oracle (§V-F): exhaustive search over all set-partitions of the job pool
// (and greedy machine allocation per partition) for the grouping that
// maximizes modelled cluster utilization. Exponential — the ground truth the
// scalable scheduler is compared against, feasible only for small job counts.
#pragma once

#include <cstdint>
#include <span>

#include "harmony/scheduler.h"

namespace harmony::baselines {

class OracleScheduler {
 public:
  struct Params {
    // Refuses inputs beyond this size (Bell numbers explode; Bell(12) ≈ 4.2M
    // partitions is already seconds of work).
    std::size_t max_jobs = 12;
  };

  OracleScheduler() : OracleScheduler(Params{}) {}
  explicit OracleScheduler(Params params) : params_(params) {}

  core::ScheduleDecision schedule(std::span<const core::SchedJob> jobs,
                                  std::size_t machines) const;

  // Number of set-partitions examined by the last schedule() call.
  std::uint64_t partitions_examined() const noexcept { return examined_; }

 private:
  Params params_;
  core::Scheduler allocator_;  // reused for its machine-allocation step
  mutable std::uint64_t examined_ = 0;
};

}  // namespace harmony::baselines
