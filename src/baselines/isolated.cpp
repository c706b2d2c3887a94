#include "baselines/isolated.h"

namespace harmony::baselines {

std::size_t IsolatedScheduler::pick_dop(const core::JobProfile& profile) const {
  std::size_t m = 1;
  while (m < params_.max_machines_per_job &&
         profile.t_cpu(m + 1) >= params_.cpu_bias * profile.t_net) {
    ++m;
  }
  return m;
}

}  // namespace harmony::baselines
