// DES event-queue microbench (google-benchmark): the simulator's binary heap
// and event slots under the access patterns the simulator produces.
//
//   HoldModel          steady-state pop→push cycling at a fixed queue size.
//   EnqueueDrain       bulk schedule of n events at random times, then drain.
//   ScheduleCancelMix  schedule n, cancel half at random, drain the rest —
//                      exercises lazy cancellation and orphan compaction.
//
// Sizes run 1k → 10M events; the 10M drain pins Iterations(1) so a single
// pass is measured instead of google-benchmark re-running a multi-second
// workload to convergence. End-to-end replays keep far fewer events pending
// (see DESIGN.md § Event queue), so the small rows are the representative
// ones.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "sim/simulator.h"

using namespace harmony;

namespace {

// Each fired event schedules its successor a random exponential step ahead,
// holding the queue at a constant population.
struct HoldEvent {
  sim::Simulator* sim;
  Rng* rng;
  void operator()() const {
    sim->schedule_in(rng->exponential(1.0), HoldEvent{sim, rng});
  }
};

void BM_HoldModel(benchmark::State& state) {
  const auto resident = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  Rng rng(17);
  for (std::size_t i = 0; i < resident; ++i)
    sim.schedule_in(rng.exponential(1.0), HoldEvent{&sim, &rng});
  for (auto _ : state) sim.run(resident);  // one full hold cycle
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(resident));
  state.SetLabel(std::to_string(resident) + " resident");
}

void BM_EnqueueDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(23);
    for (std::size_t i = 0; i < n; ++i)
      sim.schedule_at(rng.uniform(0.0, 1e6), [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.events_fired());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(std::to_string(n) + " events");
}

void BM_ScheduleCancelMix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::EventId> ids(n);
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(29);
    for (std::size_t i = 0; i < n; ++i)
      ids[i] = sim.schedule_at(rng.uniform(0.0, 1e6), [] {});
    // Cancel a random half — the mix a regrouping storm produces.
    for (std::size_t i = 0; i < n; ++i)
      if (rng.uniform(0.0, 1.0) < 0.5) sim.cancel(ids[i]);
    sim.run();
    benchmark::DoNotOptimize(sim.events_fired());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(std::to_string(n) + " scheduled, ~half cancelled");
}

}  // namespace

BENCHMARK(BM_HoldModel)->Arg(1 << 10)->Arg(1 << 15)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_EnqueueDrain)->Arg(1 << 10)->Arg(1 << 15)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_EnqueueDrain)  // 10M: one measured pass
    ->Arg(10'000'000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ScheduleCancelMix)->Arg(1 << 10)->Arg(1 << 15)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

HARMONY_BENCHMARK_JSON_MAIN("BENCH_event_queue.json");
