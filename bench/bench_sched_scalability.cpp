// §V-F scheduling-algorithm scalability (google-benchmark): Harmony's
// Algorithm 1 from 80 jobs/100 machines up to 8K jobs/10K machines, against
// the exponential exhaustive search at small sizes, plus step 3 (machine
// allocation) alone under contention.
//
// Paper: Harmony schedules 80 jobs on 100 machines in ~1.2 s and 8K jobs on
// 10K machines within 5 s; the oracle takes minutes-to-hours.
#include <benchmark/benchmark.h>

#include <numeric>

#include "baselines/oracle.h"
#include "bench_util.h"
#include "common/rng.h"
#include "harmony/scheduler.h"

using namespace harmony;

namespace {

std::vector<core::SchedJob> synthetic_pool(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::SchedJob> jobs;
  jobs.reserve(n);
  for (core::JobId i = 0; i < n; ++i)
    jobs.push_back(core::SchedJob{
        i, core::JobProfile{rng.uniform(400, 8000), rng.uniform(20, 400)}});
  return jobs;
}

void BM_HarmonySchedule(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto machines = static_cast<std::size_t>(state.range(1));
  const auto pool = synthetic_pool(jobs, 7);
  for (auto _ : state) {
    auto decision = core::schedule(pool, machines);
    benchmark::DoNotOptimize(decision);
  }
  state.SetLabel(std::to_string(jobs) + " jobs / " + std::to_string(machines) + " machines");
}

// `count` groups of 2–6 jobs drawn from the paper's catalog.
std::vector<std::vector<core::SchedJob>> catalog_groups(std::size_t count, std::uint64_t seed) {
  const auto catalog = exp::make_catalog(2021);
  Rng rng(seed);
  std::vector<std::vector<core::SchedJob>> groups(count);
  core::JobId id = 0;
  for (auto& group : groups) {
    const auto size = rng.uniform_int(2, 6);
    for (std::int64_t k = 0; k < size; ++k) {
      const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(catalog.size()) - 1);
      group.push_back(core::SchedJob{id++, catalog[static_cast<std::size_t>(pick)].profile()});
    }
  }
  return groups;
}

// Step 3 alone with machines running out before every group reaches its
// balance point, the regime of the completion rules' contended calls. The
// BM_HarmonySchedule rows from 500 jobs up place a single job and never
// contend. Catalog groups balance at about 20 machines each, so each budget
// below is about half the groups' balance targets.
void BM_AllocateMachines(benchmark::State& state) {
  const auto groups = catalog_groups(static_cast<std::size_t>(state.range(0)), 7);
  const auto machines = static_cast<std::size_t>(state.range(1));
  const auto alloc = core::allocate_machines(groups, machines);
  if (std::accumulate(alloc.begin(), alloc.end(), std::size_t{0}) != machines) {
    state.SkipWithError("budget does not bind: the allocation leaves machines idle");
    return;
  }
  for (auto _ : state) {
    auto result = core::allocate_machines(groups, machines);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(std::to_string(groups.size()) + " groups / " + std::to_string(machines) +
                 " machines");
}

void BM_OracleSchedule(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto pool = synthetic_pool(jobs, 7);
  for (auto _ : state) {
    auto result = baselines::oracle_schedule(pool, 32);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(std::to_string(jobs) + " jobs (exhaustive)");
}

}  // namespace

BENCHMARK(BM_HarmonySchedule)
    ->Args({80, 100})       // the paper's main setting
    ->Args({500, 1000})
    ->Args({2000, 4000})
    ->Args({8000, 10000})   // the paper's datacenter-scale emulation
    ->Args({20000, 20000})  // beyond the paper: stresses the incremental paths
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_AllocateMachines)
    ->Args({4, 40})
    ->Args({40, 400})
    ->Args({200, 2000})
    ->Args({1000, 10000})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_OracleSchedule)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Arg(11)
    ->Unit(benchmark::kMillisecond);

HARMONY_BENCHMARK_JSON_MAIN("BENCH_sched_scalability.json");
