// Fig. 4: naive co-location fails to raise utilization. NMF, Lasso and MLR
// run alone and in uncoordinated pairs on 16 machines; the triple overflows
// memory (OOM). Contended execution models the interference of Fig. 5a.
#include <cstdio>

#include "bench_util.h"

using namespace harmony;

namespace {

const exp::WorkloadSpec* find(const std::vector<exp::WorkloadSpec>& catalog,
                              const std::string& app, const std::string& ds) {
  for (const auto& s : catalog)
    if (s.app == app && s.dataset == ds) return &s;
  return nullptr;
}

}  // namespace

int main() {
  const auto catalog = exp::make_catalog();
  const auto* nmf = find(catalog, "NMF", "Netflix64x");
  const auto* lasso = find(catalog, "Lasso", "SyntheticA");
  const auto* mlr = find(catalog, "MLR", "Synthetic16K");

  struct Case {
    std::string label;
    std::vector<exp::WorkloadSpec> jobs;
  };
  std::vector<Case> cases = {
      {"NMF", {*nmf}},
      {"Lasso", {*lasso}},
      {"MLR", {*mlr}},
      {"NMF+Lasso", {*nmf, *lasso}},
      {"NMF+MLR", {*nmf, *mlr}},
      {"NMF+MLR+Lasso", {*nmf, *mlr, *lasso}},
  };

  bench::print_header("Fig. 4: naive co-location on 16 machines");
  TextTable table({"workload", "CPU util (%)", "Net util (%)", "OOM?"});
  cluster::MachineSpec spec;
  for (auto& c : cases) {
    const bool ooms = exp::co_location_ooms(c.jobs, 16, spec);
    if (ooms) {
      table.add_row({c.label, "-", "-", "OUT OF MEMORY"});
      continue;
    }
    exp::ClusterSimConfig config = exp::ClusterSimConfig::naive(0);
    config.grouping = exp::GroupingPolicy::kOneGroup;  // force this exact set
    config.exec = exp::ExecModel::kContended;
    config.machines = 16;
    for (auto& j : c.jobs) j.iterations = 40;
    exp::ClusterSim sim(config, c.jobs, exp::batch_arrivals(c.jobs.size()));
    const auto summary = sim.run();
    table.add_row({c.label, TextTable::format_double(100.0 * summary.avg_util.cpu, 1),
                   TextTable::format_double(100.0 * summary.avg_util.net, 1), "no"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nPaper shape: pairs average out near ~50%% per resource (no coordination);\n"
      "the NMF+MLR+Lasso triple exceeds the 32 GB machines -> OOM\n");
  return 0;
}
