#include "harmony/profiler.h"

#include <stdexcept>

namespace harmony::core {

void Profiler::record(JobId job, std::size_t machines, double t_cpu, double t_net) {
  if (job == kNoJob) throw std::invalid_argument("Profiler: no job id");
  if (machines == 0) throw std::invalid_argument("Profiler: zero machines");
  if (t_cpu < 0.0 || t_net < 0.0) throw std::invalid_argument("Profiler: negative time");
  if (job >= entries_.size()) entries_.resize(job + std::size_t{1});
  Entry& e = entries_[job];
  const double cpu_work = t_cpu * static_cast<double>(machines);
  if (e.samples == 0) {
    e.cpu_work = cpu_work;
    e.t_net = t_net;
  } else {
    e.cpu_work += kProfileEmaAlpha * (cpu_work - e.cpu_work);
    e.t_net += kProfileEmaAlpha * (t_net - e.t_net);
  }
  ++e.samples;
}

}  // namespace harmony::core
