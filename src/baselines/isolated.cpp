#include "baselines/isolated.h"

namespace harmony::baselines {

std::size_t isolated_dop(const core::JobProfile& profile) {
  std::size_t m = 1;
  while (m < kIsolatedMaxMachines && profile.t_cpu(m + 1) >= kIsolatedCpuBias * profile.t_net) {
    ++m;
  }
  return m;
}

}  // namespace harmony::baselines
