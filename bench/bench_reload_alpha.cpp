// §V-G dynamic data reloading micro-benchmark: 8 jobs (4 apps x 2 datasets)
// on 32 machines. Fixed disk ratios α are swept against Harmony's per-job
// hill-climbing α.
//
// Paper shape: fixed α is U-shaped (too high -> reload blocking; too low ->
// GC explosion) with the best manual value at α = 0.3 (52.9 s); dynamic
// per-job α beats the best manual value by ~16% (44.3 s).
#include <cstdio>

#include "bench_util.h"

using namespace harmony;

namespace {

std::vector<exp::WorkloadSpec> eight_jobs() {
  const auto catalog = exp::make_catalog();
  // One job per (app, dataset) pair: exactly the paper's 4 apps x 2 datasets.
  std::vector<exp::WorkloadSpec> out;
  std::vector<std::string> seen;
  for (const auto& s : catalog) {
    const std::string key = s.app + "/" + s.dataset;
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    out.push_back(s);
    // §V-G runs with ~1-minute group iterations (best fixed point: 52.9 s),
    // i.e. hyper-parameters where compute per byte of input is low and the
    // reload/GC trade-off actually binds. Scale the per-iteration costs into
    // that regime; memory footprints stay untouched.
    out.back().cpu_work /= 8.0;
    out.back().t_net /= 8.0;
    out.back().iterations = 80;
  }
  return out;
}

double run_with(std::optional<double> fixed_alpha, exp::AlphaStats* stats = nullptr) {
  auto config = exp::ClusterSimConfig::harmony();
  config.grouping = exp::GroupingPolicy::kOneGroup;  // the 8 jobs share the pool
  config.machines = 32;
  config.fixed_alpha = fixed_alpha;
  config.alpha_update_every = 1;  // micro-benchmark: observe every iteration
  auto jobs = eight_jobs();
  exp::ClusterSim sim(config, jobs, exp::batch_arrivals(jobs.size()));
  sim.run();
  if (stats != nullptr) *stats = sim.alpha_stats();
  // Steady-state mean: skip the first half (the hill climb's settling phase;
  // fixed-α runs have no transient, so this is the conservative comparison).
  return sim.second_half_iteration_walls().mean();
}

}  // namespace

int main() {
  bench::print_header("Dynamic data reloading (§V-G): 8 jobs on 32 machines");
  TextTable table({"policy", "mean iteration time (s)"});
  double best_fixed = 1e300;
  double best_alpha = 0.0;
  for (double alpha : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.0}) {
    const double t = run_with(alpha);
    if (t < best_fixed) {
      best_fixed = t;
      best_alpha = alpha;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "fixed alpha = %.1f", alpha);
    table.add_numeric_row(label, {t}, 1);
  }
  exp::AlphaStats stats;
  const double dynamic = run_with(std::nullopt, &stats);
  table.add_numeric_row("dynamic (hill climbing)", {dynamic}, 1);
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nbest fixed alpha: %.1f at %.1f s; dynamic: %.1f s (%.1f%% %s)\n", best_alpha,
              best_fixed, dynamic, 100.0 * std::abs(best_fixed - dynamic) / best_fixed,
              dynamic <= best_fixed ? "faster" : "slower");
  std::printf("dynamic alpha stats: mean %.2f  min %.2f  max %.2f  jobs at alpha=1: %zu\n",
              stats.mean, stats.min, stats.max, stats.jobs_at_one);
  std::printf("paper: best fixed 52.9 s at alpha=0.3; dynamic 44.3 s (16.3%% faster); "
              "alpha mean 0.34, min 0.11, max 1\n");
  return 0;
}
