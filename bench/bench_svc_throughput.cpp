// Online-service scheduling-plane throughput (google-benchmark): full
// svc::Service runs — open-loop poisson arrivals, admission control,
// incremental join/leave repair with drift-triggered full repacks.
//
// The headline is BM_ServiceSteady: 10k machines at a sub-saturating 0.02
// jobs/s for 10^6 simulated seconds (perfbench's service-steady setting over
// a tenth of its horizon). Nearly every event is a placed join or a leave,
// with a few hundred full reschedules, so it times the decisions the service
// exists to make. It reports each class's rate per wall-second and its p99
// wall time.
//
// BM_IncrementalJoin times one IncrementalScheduler join and leave apart
// from the service loop: the join probes a window of 64 candidate groups.
//
// BM_ServiceThroughput is the shedding stress case: arrivals over-subscribe
// the cluster, the admission queue stays full, and most events are
// rejections (95,691 of 103,936 in the 10k row), so its events/sec mostly
// counts the cheap shed path. tools/bench_compare.py gates every row
// against bench/results/HISTORY.json.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "exp/workload.h"
#include "harmony/incremental.h"
#include "obs/slo.h"
#include "svc/service.h"

using namespace harmony;

namespace {

// A grouping like the service's steady state: 70 slots of 1-5 members on
// 10,000 machines, each group at its balance point, adopted from a built
// decision. As in the service's probe windows, 82% of groups hold one member
// and the mean is about 1.2. Profiles are drawn as Service::make_pending
// draws them (the catalog profile with 10% lognormal jitter on both terms).
// Each iteration joins the next of 256 seeded arrivals and, when the join
// places it, removes it again, so the grouping stays near its start.
void BM_IncrementalJoin(benchmark::State& state) {
  constexpr std::size_t kMachines = 10000;
  constexpr std::size_t kSlots = 70;
  const auto catalog = exp::make_catalog();
  Rng rng(1);
  core::JobId next_id = 0;
  const auto draw = [&] {
    core::JobProfile profile = catalog[next_id % catalog.size()].profile();
    profile.cpu_work *= rng.lognormal_noise(0.10);
    profile.t_net *= rng.lognormal_noise(0.10);
    return core::SchedJob{next_id++, profile};
  };

  std::vector<core::SchedJob> pool;
  core::ScheduleDecision decision;
  std::size_t free = kMachines;
  for (std::size_t s = 0; s < kSlots; ++s) {
    core::GroupPlan plan;
    double sum_cpu_work = 0.0;
    double sum_t_net = 0.0;
    const double u = rng.uniform(0.0, 1.0);
    const int members = u < 0.82 ? 1 : u < 0.96 ? 2 : u < 0.98 ? 3 : u < 0.99 ? 4 : 5;
    for (int k = 0; k < members; ++k) {
      const core::SchedJob j = draw();
      pool.push_back(j);
      plan.jobs.push_back(j.id);
      sum_cpu_work += j.profile.cpu_work;
      sum_t_net += j.profile.t_net;
    }
    plan.machines = core::balanced_dop(sum_cpu_work, sum_t_net, free - (kSlots - s - 1));
    free -= plan.machines;
    decision.groups.push_back(std::move(plan));
  }
  core::IncrementalScheduler inc(0.10, kMachines);
  inc.adopt(decision, pool);

  std::vector<core::SchedJob> arrivals;
  for (int i = 0; i < 256; ++i) arrivals.push_back(draw());
  std::size_t next = 0;
  std::int64_t placed = 0;
  for (auto _ : state) {
    const core::SchedJob& job = arrivals[next];
    next = next + 1 == arrivals.size() ? 0 : next + 1;
    const auto result = inc.join(job);
    benchmark::DoNotOptimize(result);
    if (result) {
      inc.leave(job.id);
      ++placed;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["placed_pct"] =
      100.0 * static_cast<double>(placed) / static_cast<double>(state.iterations());
  state.counters["free_machines"] = static_cast<double>(inc.free_machines());
  state.SetLabel("70 slots / 10000 machines");
}

void BM_ServiceSteady(benchmark::State& state) {
  const auto catalog = exp::make_catalog();
  std::uint64_t events = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t full_reschedules = 0;
  svc::ServiceSummary summary;
  for (auto _ : state) {
    svc::ServiceConfig config;
    config.machines = 10000;
    config.duration_sec = 1e6;
    config.mean_interarrival_sec = 50.0;
    config.seed = 1;
    svc::Service service(config, catalog);
    summary = service.run();
    benchmark::DoNotOptimize(summary.final_score);
    events += summary.scheduling_events;
    joins += summary.incremental_joins;
    leaves += summary.incremental_leaves;
    full_reschedules += summary.full_reschedules;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  const auto rate = [](std::uint64_t n) {
    return benchmark::Counter(static_cast<double>(n), benchmark::Counter::kIsRate);
  };
  state.counters["events_per_sec"] = rate(events);
  state.counters["joins_per_sec"] = rate(joins);
  state.counters["leaves_per_sec"] = rate(leaves);
  state.counters["full_reschedules_per_sec"] = rate(full_reschedules);
  // Wall time per decision class, from the last run.
  state.counters["join_p99_us"] = summary.join_latency_p99_us;
  state.counters["leave_p99_us"] = summary.leave_latency_p99_us;
  state.counters["full_reschedule_p99_us"] = summary.full_reschedule_p99_us;
  state.SetLabel("10000 machines / 0.02 jobs/s offered");
}

void BM_ServiceThroughput(benchmark::State& state) {
  const auto machines = static_cast<std::size_t>(state.range(0));
  const double arrival_rate = static_cast<double>(state.range(1));
  const auto catalog = exp::make_catalog();
  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  for (auto _ : state) {
    svc::ServiceConfig config;
    config.machines = machines;
    config.duration_sec = 20000.0;
    config.mean_interarrival_sec = 1.0 / arrival_rate;
    config.queue_capacity = 4096;
    config.seed = 11;
    svc::Service service(config, catalog);
    const auto summary = service.run();
    benchmark::DoNotOptimize(summary.final_score);
    events += summary.scheduling_events;
    sim_seconds += summary.duration_sec;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_sec_per_wall"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.SetLabel(std::to_string(machines) + " machines / " +
                 std::to_string(state.range(1)) + " jobs/s offered");
}

// Same run with the live-telemetry stack on: one window per 5 sim-minutes (a
// production-scrape cadence), two SLO monitors evaluated per window, no file
// sinks. The delta between this row and BM_ServiceThroughput at the same
// Args is the telemetry overhead, which must stay within the bench_compare
// regression gate (the sampling path reads pre-resolved series pointers —
// one atomic load per counter/gauge, one short lock per histogram).
void BM_ServiceThroughputTelemetry(benchmark::State& state) {
  const auto machines = static_cast<std::size_t>(state.range(0));
  const double arrival_rate = static_cast<double>(state.range(1));
  const auto catalog = exp::make_catalog();
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  for (auto _ : state) {
    svc::ServiceConfig config;
    config.machines = machines;
    config.duration_sec = 20000.0;
    config.mean_interarrival_sec = 1.0 / arrival_rate;
    config.queue_capacity = 4096;
    config.seed = 11;
    config.telemetry_interval_sec = 300.0;
    obs::SloSpec slo;
    std::string error;
    obs::parse_slo("queue-delay-p99=300", slo, error);
    config.slos.push_back(slo);
    obs::parse_slo("rejection-rate=0.5", slo, error);
    config.slos.push_back(slo);
    svc::Service service(config, catalog);
    const auto summary = service.run();
    benchmark::DoNotOptimize(summary.final_score);
    events += summary.scheduling_events;
    windows += summary.telemetry_windows;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["windows_per_sec"] =
      benchmark::Counter(static_cast<double>(windows), benchmark::Counter::kIsRate);
  state.SetLabel(std::to_string(machines) + " machines / telemetry on");
}

}  // namespace

BENCHMARK(BM_ServiceSteady)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_IncrementalJoin);

BENCHMARK(BM_ServiceThroughput)
    ->Args({1000, 2})
    ->Args({10000, 5})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ServiceThroughputTelemetry)
    ->Args({1000, 2})
    ->Args({10000, 5})
    ->Unit(benchmark::kMillisecond);

HARMONY_BENCHMARK_JSON_MAIN("BENCH_svc_throughput.json");
