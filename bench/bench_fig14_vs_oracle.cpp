// Fig. 14 + §V-F: Harmony's greedy decision vs the exhaustive-search Oracle.
// The oracle is exponential (Bell numbers), so the head-to-head uses a
// 10-job pool; scheduling wall times for both are reported alongside.
//
// Paper shape: Harmony within ~2% of the oracle on utilization/JCT/makespan,
// while scheduling orders of magnitude faster.
#include <chrono>
#include <cstdio>

#include "baselines/oracle.h"
#include "bench_util.h"

using namespace harmony;

int main() {
  const auto catalog = exp::make_catalog();
  // A diverse 10-job pool: every 8th job spans all four families.
  std::vector<exp::WorkloadSpec> workload;
  for (std::size_t i = 0; i < catalog.size() && workload.size() < 10; i += 8)
    workload.push_back(catalog[i]);
  std::vector<core::SchedJob> pool;
  for (std::size_t i = 0; i < workload.size(); ++i)
    pool.push_back(core::SchedJob{static_cast<core::JobId>(i), workload[i].profile()});
  const std::size_t machines = 40;

  const auto t0 = std::chrono::steady_clock::now();
  const auto h = core::schedule(pool, machines);
  const double t_harmony =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto t1 = std::chrono::steady_clock::now();
  const auto [o, examined] = baselines::oracle_schedule(pool, machines);
  const double t_oracle =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();

  bench::print_header("Fig. 14: Harmony vs exhaustive search (10 jobs, 40 machines)");
  TextTable table({"scheduler", "pred. CPU util", "pred. net util", "score", "wall time (ms)"});
  table.add_numeric_row("Oracle", {o.predicted_util.cpu, o.predicted_util.net, o.score,
                                   1000.0 * t_oracle});
  table.add_numeric_row("Harmony", {h.predicted_util.cpu, h.predicted_util.net, h.score,
                                    1000.0 * t_harmony});
  std::fputs(table.render().c_str(), stdout);
  std::printf("score gap: %.2f%% (paper: ~2%%); oracle examined %llu partitions\n",
              100.0 * (1.0 - h.score / o.score),
              static_cast<unsigned long long>(examined));

  // Scaling comparison (§V-F): Harmony's scheduling time grows mildly with
  // the pool; the oracle explodes with Bell numbers.
  bench::print_header("§V-F: scheduling wall time vs pool size");
  TextTable scale({"jobs", "Harmony (ms)", "Oracle (ms)", "Oracle partitions"});
  for (std::size_t n : {6u, 8u, 10u, 11u}) {
    std::vector<core::SchedJob> sub(pool.begin(),
                                    pool.begin() + static_cast<std::ptrdiff_t>(
                                                       std::min(n, pool.size())));
    while (sub.size() < n) {
      auto extra = sub[sub.size() % pool.size()];
      extra.id = static_cast<core::JobId>(sub.size());
      sub.push_back(extra);
    }
    const auto h0 = std::chrono::steady_clock::now();
    auto hd = core::schedule(sub, machines);
    const double ht =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - h0).count();
    const auto o0 = std::chrono::steady_clock::now();
    auto [od, sub_examined] = baselines::oracle_schedule(sub, machines);
    const double ot =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - o0).count();
    volatile double sink = hd.score + od.score;
    (void)sink;
    scale.add_row({std::to_string(n), TextTable::format_double(1000.0 * ht),
                   TextTable::format_double(1000.0 * ot),
                   std::to_string(sub_examined)});
  }
  std::fputs(scale.render().c_str(), stdout);
  std::printf("paper: Harmony 1.2 s for 80 jobs/100 machines vs 13.8 min exhaustive; see "
              "bench_sched_scalability for the large-scale sweep\n");
  return 0;
}
