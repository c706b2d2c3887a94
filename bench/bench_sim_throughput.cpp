// End-to-end simulator throughput (google-benchmark): full ClusterSim runs
// under the Harmony policy at increasing scale, reporting DES throughput as
// events/sec and simulated-seconds per wall-second. This is the headline
// number for the DES core (event heap + event slots + SoA job state): the
// 100k-job row is the largest configuration it targets.
//
// BM_ClusterSimThroughput arrivals are poisson: batch arrivals funnel
// everything through the scheduler at t=0 and measure scheduling, not the
// event loop. BM_ClusterSimBatch is that other row: it times the scheduling
// calls (Algorithm 1, the regroup rules and the idle-pool views they read),
// and stays outside the BM_ClusterSimThroughput family that
// `tools/bench_compare.py --scaling` gates.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"

using namespace harmony;

namespace {

// The 80-job catalog tiled out to n jobs, iteration counts trimmed so the
// large sweeps stay minutes-not-hours at the 100k scale.
std::vector<exp::WorkloadSpec> tiled_workload(std::size_t n) {
  auto catalog = exp::make_catalog();
  std::vector<exp::WorkloadSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto spec = catalog[i % catalog.size()];
    spec.id = static_cast<core::JobId>(i);
    spec.iterations = std::min<std::size_t>(spec.iterations, 30);
    out.push_back(spec);
  }
  return out;
}

void BM_ClusterSimThroughput(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto machines = static_cast<std::size_t>(state.range(1));
  const auto workload = tiled_workload(jobs);
  const auto arrivals = exp::poisson_arrivals(jobs, 2.0, 5);
  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  for (auto _ : state) {
    exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
    config.machines = machines;
    exp::ClusterSim sim(config, workload, arrivals);
    auto summary = sim.run();
    benchmark::DoNotOptimize(summary.makespan);
    events += sim.events_fired();
    sim_seconds += sim.sim_now();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_sec_per_wall"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.SetLabel(std::to_string(jobs) + " jobs / " + std::to_string(machines) +
                 " machines");
}

// Table I tiled to n jobs at full length, all submitted at t=0: perfbench's
// replay-batch setting (4000 jobs / 2000 machines) and a half-size row.
void BM_ClusterSimBatch(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto machines = static_cast<std::size_t>(state.range(1));
  auto workload = exp::make_catalog();
  for (std::size_t i = 0; workload.size() < jobs; ++i) workload.push_back(workload[i]);
  workload.resize(jobs);
  const auto arrivals = exp::batch_arrivals(jobs);
  std::uint64_t events = 0;
  std::size_t sched_calls = 0;
  for (auto _ : state) {
    exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
    config.machines = machines;
    exp::ClusterSim sim(config, workload, arrivals);
    auto summary = sim.run();
    benchmark::DoNotOptimize(summary.makespan);
    events += sim.events_fired();
    sched_calls += sim.sched_invocations();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sched_calls"] = benchmark::Counter(
      static_cast<double>(sched_calls), benchmark::Counter::kAvgIterations);
  state.SetLabel(std::to_string(jobs) + " jobs / " + std::to_string(machines) +
                 " machines / batch");
}

}  // namespace

BENCHMARK(BM_ClusterSimBatch)
    ->Args({2000, 1000})
    ->Args({4000, 2000})  // perfbench's replay-batch setting
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ClusterSimThroughput)
    ->Args({1000, 100})
    ->Args({10000, 1000})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ClusterSimThroughput)  // the 100k-job target, one pass
    ->Args({100000, 10000})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

HARMONY_BENCHMARK_JSON_MAIN("BENCH_sim_throughput.json");
