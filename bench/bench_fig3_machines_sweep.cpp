// Fig. 3: one MLR job on 4 / 8 / 16 / 32 machines — (a) CPU utilization falls
// as DoP rises (communication share grows); (b) iteration time falls (COMP
// shrinks with Eq. 2) while PULL/PUSH stay flat.
#include <cstdio>

#include "bench_util.h"

using namespace harmony;

int main() {
  const auto catalog = exp::make_catalog();
  // The most computation-heavy MLR job: the sweep then shows the full
  // high-to-low CPU-utilization arc the paper's Fig. 3 plots.
  const exp::WorkloadSpec* spec = nullptr;
  for (const auto& s : catalog) {
    if (s.app != "MLR") continue;
    if (spec == nullptr || s.profile().comp_ratio(16) > spec->profile().comp_ratio(16))
      spec = &s;
  }

  bench::print_header("Fig. 3: one MLR job vs number of machines");
  TextTable table({"machines", "CPU util (%)", "Net util (%)", "iteration (s)", "COMP (s)",
                   "PULL+PUSH (s)"});
  for (std::size_t machines : {4u, 8u, 16u, 32u}) {
    exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
    config.grouping = exp::GroupingPolicy::kOneGroup;
    config.machines = machines;
    config.spill_enabled = true;  // small DoP needs spilling to fit at all
    std::vector<exp::WorkloadSpec> workload{*spec};
    workload[0].iterations = 40;
    exp::ClusterSim sim(config, workload, exp::batch_arrivals(1));
    const auto summary = sim.run();
    const double itr = sim.iteration_walls().mean();
    const auto profile = workload[0].profile();
    table.add_row({std::to_string(machines),
                   TextTable::format_double(100.0 * summary.avg_util.cpu, 1),
                   TextTable::format_double(100.0 * summary.avg_util.net, 1),
                   TextTable::format_double(itr, 1),
                   TextTable::format_double(profile.t_cpu(machines), 1),
                   TextTable::format_double(profile.t_net, 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nPaper shape: iteration time falls with machines; CPU util falls as the "
              "communication share grows\n");
  return 0;
}
