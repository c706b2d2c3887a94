// Fig. 13: (a) sensitivity of Harmony's speedup to performance-model error —
// injected relative error on the profiles the scheduler sees; (b) measured
// prediction error of the model itself (group iteration time and U).
//
// Paper shape: speedup stays >90% of maximum below ~7.5% error and degrades
// quickly beyond; the model's own error stays below ~5%.
#include <cstdio>

#include "bench_util.h"

using namespace harmony;

int main() {
  auto workload = exp::make_catalog();
  const auto arrivals = exp::batch_arrivals(workload.size());

  // 13a is a model-level simulation like the paper's (§V-E: "we simulate the
  // execution with different error levels"): Algorithm 1 decides with
  // error-perturbed profiles, and the decision's real quality is evaluated
  // with the true profiles. Throughput is proportional to achieved CPU
  // utilization, so the achieved-U ratio is the speedup ratio.
  bench::print_header("Fig. 13a: decision quality vs injected model error");
  std::vector<core::SchedJob> truth;
  for (const auto& s : workload) truth.push_back(s.sched_job());

  auto achieved_util = [&](double err, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<core::SchedJob> noisy = truth;
    for (auto& j : noisy) {
      j.profile.cpu_work *= 1.0 + rng.uniform(-err, err);
      j.profile.t_net *= 1.0 + rng.uniform(-err, err);
    }
    const auto decision = core::schedule(noisy, 100);
    // Re-evaluate the chosen grouping with the true profiles.
    std::vector<core::GroupShape> shapes;
    for (const auto& plan : decision.groups) {
      core::GroupShape shape;
      shape.machines = plan.machines;
      for (auto id : plan.jobs) shape.jobs.push_back(truth[id].profile);
      shapes.push_back(std::move(shape));
    }
    return core::PerfModel::cluster_utilization(shapes).cpu;
  };

  TextTable table({"error (%)", "achieved CPU util", "normalized speedup"});
  const double base = achieved_util(0.0, 1);
  for (double err : {0.0, 0.025, 0.05, 0.075, 0.10, 0.15, 0.20}) {
    double sum = 0.0;
    const int seeds = 5;
    for (int s = 1; s <= seeds; ++s) sum += achieved_util(err, static_cast<std::uint64_t>(s));
    const double u = sum / seeds;
    table.add_numeric_row(TextTable::format_double(100.0 * err, 1), {u, u / base});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("(paper: >90%% of full speedup below ~7.5%% error, rapid degradation beyond)\n");

  bench::print_header("Fig. 13b: prediction error of the performance model");
  auto cfg = exp::ClusterSimConfig::harmony();
  cfg.machines = 100;
  exp::ClusterSim sim(cfg, workload, arrivals);
  sim.run();
  const auto& errs = sim.prediction_errors();
  std::printf("group iteration time: mean %.1f%%  p50 %.1f%%  p95 %.1f%%  (n=%zu)\n",
              100.0 * errs.group_iteration_rel_error.mean(),
              100.0 * errs.group_iteration_rel_error.quantile(0.5),
              100.0 * errs.group_iteration_rel_error.quantile(0.95),
              errs.group_iteration_rel_error.size());
  std::printf("cluster utilization U: mean %.1f%%  p50 %.1f%%  p95 %.1f%%  (n=%zu)\n",
              100.0 * errs.utilization_rel_error.mean(),
              100.0 * errs.utilization_rel_error.quantile(0.5),
              100.0 * errs.utilization_rel_error.quantile(0.95),
              errs.utilization_rel_error.size());
  std::printf("(paper: both below ~5%%)\n");
  return 0;
}
