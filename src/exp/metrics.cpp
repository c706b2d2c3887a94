#include "exp/metrics.h"

#include <algorithm>
#include <sstream>

namespace harmony::exp {

core::Utilization UtilizationTimeline::average_until(double horizon_sec) const {
  core::Utilization acc;
  std::size_t n = 0;
  for (auto it = values_.begin(); it != values_.end() && time_of(n) <= horizon_sec; ++it, ++n) {
    acc.cpu += it->cpu;
    acc.net += it->net;
  }
  if (n == 0) return {};
  return core::Utilization{acc.cpu / static_cast<double>(n), acc.net / static_cast<double>(n)};
}

std::string UtilizationTimeline::tsv(std::size_t max_rows) const {
  std::ostringstream out;
  if (values_.empty() || max_rows == 0) return out.str();
  const std::size_t stride = std::max<std::size_t>(1, values_.size() / max_rows);
  for (std::size_t i = 0; i < values_.size(); i += stride) {
    out << time_of(i) << '\t' << values_[i].cpu << '\t' << values_[i].net << '\n';
  }
  return out.str();
}

double RunSummary::mean_jct() const {
  if (jobs.empty()) return 0.0;
  double sum = 0.0;
  for (const JobOutcome& j : jobs) sum += j.jct();
  return sum / static_cast<double>(jobs.size());
}

double RunSummary::max_finish() const {
  double latest = 0.0;
  for (const JobOutcome& j : jobs) latest = std::max(latest, j.finish_time);
  return latest;
}

}  // namespace harmony::exp
