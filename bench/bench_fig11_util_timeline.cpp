// Fig. 11: CPU and network utilization over time for Harmony and the
// isolated baseline during the 80-job run, plus the paper's summary numbers
// (Harmony 93.2% CPU / 83.1% network; 1.65x the isolated utilization).
#include <cstdio>

#include "bench_util.h"

using namespace harmony;

namespace {

void report(const char* label, exp::ClusterSim& sim, const exp::RunSummary& summary) {
  std::printf("\n-- %s (makespan %.1f h) --\n", label, summary.makespan / 3600.0);
  std::printf("time(min)\tcpu\tnet\n");
  const auto& tl = sim.timeline();
  const std::size_t stride = std::max<std::size_t>(1, tl.values().size() / 24);
  for (std::size_t i = 0; i < tl.values().size(); i += stride)
    std::printf("%.0f\t%.2f\t%.2f\n", tl.time_of(i) / 60.0, tl.values()[i].cpu,
                tl.values()[i].net);
  // "Busy-period" average: until 90% of jobs have finished (the tail where
  // few jobs remain dilutes the mean, visible in the paper's plot as well).
  std::vector<double> finishes;
  for (const auto& j : summary.jobs) finishes.push_back(j.finish_time);
  std::sort(finishes.begin(), finishes.end());
  const double busy_horizon = finishes[finishes.size() * 9 / 10];
  const auto busy = tl.average_until(busy_horizon);
  std::printf("avg (to makespan): cpu %.1f%% net %.1f%%; busy-period avg: cpu %.1f%% net %.1f%%\n",
              100.0 * summary.avg_util.cpu, 100.0 * summary.avg_util.net, 100.0 * busy.cpu,
              100.0 * busy.net);
}

}  // namespace

int main() {
  const auto workload = exp::make_catalog();
  const auto arrivals = exp::batch_arrivals(workload.size());

  auto iso_cfg = exp::ClusterSimConfig::isolated();
  iso_cfg.machines = 100;
  exp::ClusterSim iso(iso_cfg, workload, arrivals);
  const auto iso_summary = iso.run();

  auto h_cfg = exp::ClusterSimConfig::harmony();
  h_cfg.machines = 100;
  exp::ClusterSim harmony(h_cfg, workload, arrivals);
  const auto h_summary = harmony.run();

  bench::print_header("Fig. 11: utilization timeline, 80 jobs on 100 machines");
  report("Isolated", iso, iso_summary);
  report("Harmony", harmony, h_summary);

  const double cpu_gain = h_summary.avg_util.cpu / std::max(iso_summary.avg_util.cpu, 1e-9);
  std::printf("\nHarmony/isolated CPU utilization ratio: %.2fx (paper: ~1.65x)\n", cpu_gain);
  return 0;
}
