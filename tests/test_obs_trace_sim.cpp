// End-to-end validation of the observability layer against the cluster
// simulator: runs the harmony_sim 20-jobs/40-machines configuration with
// tracing enabled, exports the Chrome trace, parses it back, and checks the
// format plus cross-checks trace-derived totals against the RunSummary.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace harmony::exp {
namespace {

using obs::Tracer;

RunSummary run_harmony_20x40() {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 40;
  auto catalog = make_catalog();
  catalog.resize(20);
  ClusterSim sim(config, catalog, batch_arrivals(catalog.size()));
  return sim.run();
}

TEST(ObsTraceSim, TracingDoesNotChangeResults) {
  Tracer::instance().set_enabled(false);
  Tracer::instance().clear();
  const RunSummary off = run_harmony_20x40();

  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();
  const RunSummary on = run_harmony_20x40();
  Tracer::instance().set_enabled(false);

  // Bit-identical: recording is pure observation and must not perturb the
  // simulation (no RNG draws, no decision inputs).
  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.mean_jct(), on.mean_jct());
  EXPECT_EQ(off.regroup_events, on.regroup_events);
  EXPECT_EQ(off.oom_events, on.oom_events);
  EXPECT_EQ(off.migration_overhead_sec, on.migration_overhead_sec);
  EXPECT_EQ(off.avg_util.cpu, on.avg_util.cpu);
  EXPECT_EQ(off.avg_util.net, on.avg_util.net);
  ASSERT_EQ(off.jobs.size(), on.jobs.size());
  for (std::size_t i = 0; i < off.jobs.size(); ++i) {
    EXPECT_EQ(off.jobs[i].submit_time, on.jobs[i].submit_time);
    EXPECT_EQ(off.jobs[i].finish_time, on.jobs[i].finish_time);
  }
}

TEST(ObsTraceSim, ChromeTraceFormatAndCrossChecks) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();
  const RunSummary summary = run_harmony_20x40();
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  Tracer::instance().set_enabled(false);
  Tracer::instance().clear();

  // Whole-document validity.
  const json::JsonValue doc = json::parse_json(out.str());
  EXPECT_EQ(doc.at("displayTimeUnit").string(), "ms");
  const auto& events = doc.at("traceEvents").array();
  ASSERT_GT(events.size(), 100u);

  std::map<std::pair<double, double>, std::vector<double>> track_ts;
  std::map<double, std::string> process_names;
  std::size_t spans = 0, instants = 0, regroups = 0, schedules = 0, iterations = 0;
  double max_end_us = 0.0;

  for (const auto& e : events) {
    const std::string ph = e.at("ph").string();
    if (ph == "M") {
      if (e.at("name").string() == "process_name")
        process_names[e.at("pid").number()] =
            e.at("args").at("name").string();
      continue;
    }
    // Only complete spans and instants are emitted — never unmatched B/E.
    ASSERT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    const double ts = e.at("ts").number();
    const double pid = e.at("pid").number();
    const double tid = e.at("tid").number();
    EXPECT_GE(ts, 0.0);
    track_ts[{pid, tid}].push_back(ts);

    double end = ts;
    if (ph == "X") {
      ++spans;
      const double dur = e.at("dur").number();
      EXPECT_GE(dur, 0.0);
      end += dur;
    } else {
      ++instants;
    }
    EXPECT_EQ(e.at("cat").string(), "sim");  // this run has no wall-domain events
    max_end_us = std::max(max_end_us, end);

    const std::string name = e.at("name").string();
    regroups += name == "regroup";
    schedules += name == "schedule";
    iterations += name == "iteration";

    // Every event carries its entity ids; a job-scoped event lives in that
    // job's process track (pid = job + 1, pid 0 is the cluster).
    const auto& args = e.at("args");
    if (args.contains("job")) {
      EXPECT_EQ(pid, args.at("job").number() + 1.0);
    }
  }

  EXPECT_GT(spans, 0u);
  EXPECT_GT(instants, 0u);
  EXPECT_GT(iterations, 0u);

  // Timestamps are sorted within every (pid, tid) track.
  for (const auto& [track, ts] : track_ts) {
    EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()))
        << "unsorted track pid=" << track.first << " tid=" << track.second;
  }

  // Job/cluster metadata: pid 0 is the cluster, each traced job names its
  // process.
  ASSERT_TRUE(process_names.count(0.0));
  EXPECT_EQ(process_names[0.0], "cluster");
  for (const auto& [pid, name] : process_names) {
    if (pid == 0.0) continue;
    EXPECT_EQ(name, "job " + std::to_string(static_cast<int>(pid) - 1));
  }

  // Cross-checks against the RunSummary: the regroup instants are emitted at
  // the exact sites that bump RunSummary::regroup_events, and with batch
  // arrivals the last sim event ends at the makespan.
  EXPECT_EQ(regroups, summary.regroup_events);
  EXPECT_GT(schedules, 0u);
  EXPECT_NEAR(max_end_us / 1e6, summary.makespan, 1e-3);
}

TEST(ObsTraceSim, MetricsRegistryMatchesSummary) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  Tracer::instance().set_enabled(false);
  const RunSummary summary = run_harmony_20x40();

  EXPECT_EQ(reg.counter("sim.regroup_events").value(), summary.regroup_events);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.regroup_events").value(),
                   static_cast<double>(summary.regroup_events));
  EXPECT_DOUBLE_EQ(reg.gauge("sim.makespan_sec").value(), summary.makespan);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.oom_events").value(),
                   static_cast<double>(summary.oom_events));
  EXPECT_GT(reg.gauge("sim.events_fired").value(), 0.0);
  EXPECT_GT(reg.counter("scheduler.invocations").value(), 0u);
  EXPECT_GT(reg.histogram("sim.event_queue_depth", 0.0, 4096.0, 64).count(), 0u);

  // The snapshot parses and carries the same totals.
  const auto doc = json::parse_json(reg.snapshot_json());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("sim.regroup_events").number(),
                   static_cast<double>(summary.regroup_events));
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("sim.makespan_sec").number(), summary.makespan);
}

}  // namespace
}  // namespace harmony::exp
