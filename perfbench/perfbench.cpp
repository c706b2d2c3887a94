// perfbench — runs one workload of the repository benchmark (see
// perfbench/README.md).
//
//   perfbench --workload replay-batch|replay-poisson|service-steady
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//             [--inject-fault]
//
// Repeats one workload — input generation, construction, run(), correctness
// checks — until S seconds have passed (at least twice, so every run also
// proves the simulated outputs repeat bit-for-bit), then prints one JSON
// object as the last line of stdout:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics,
// from an extra pass with obs::Tracer on plus the isolated reference and a
// second seed, and writes the benchmark's wall-clock spans as a Chrome trace.
// Every number is read from outside the libraries: timed calls into their
// public entry points and the counters they already expose.
//
// --inject-fault corrupts the run through the libraries' test hooks, so the
// self-test can show the correctness gate trips. Exit status: 0 when every
// check passed, 1 when one failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"
#include "common/histogram.h"
#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"
#include "obs/analysis/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/service.h"

using namespace harmony;

namespace {

// --- workloads ---------------------------------------------------------------

// A finite replay, parameterized as harmony-sim's --jobs/--machines/--arrival.
struct ReplayWorkload {
  const char* name;
  std::size_t jobs;
  std::size_t machines;
  double poisson_mean_sec;  // 0 = batch arrivals
  // The program's own tracer is off in this workload's traced pass when its
  // trace would not fit: replay-poisson fires ~8M simulator events (about
  // half a GB of trace) over 55k simulated hours, which the analysis engine's
  // one-minute windows take more than ten minutes to walk.
  bool trace_program;
};

// Algorithm 1 / regrouper-heavy, with a healthy schedule.
constexpr ReplayWorkload kReplayBatch{"replay-batch", 4000, 2000, 0.0, true};
// Arrival-driven with a long waiting backlog: the DES core, the waiting
// index and utilization sampling do the work (and the schedule collapses).
constexpr ReplayWorkload kReplayPoisson{"replay-poisson", 40000, 4000, 2.0, false};

// The open-loop service below saturation: 0.02 jobs/s onto 10k machines for
// 10M simulated seconds, FIFO admission, default queue cap.
svc::ServiceConfig service_config(std::uint64_t seed) {
  svc::ServiceConfig c;
  c.machines = 10000;
  c.duration_sec = 1e7;
  c.mean_interarrival_sec = 50.0;
  c.seed = seed;
  // One telemetry window spanning the arrival horizon: run() then closes a
  // final window at the last departure, whose end is the makespan. Two ticks
  // per run, and telemetry never feeds back into scheduling.
  c.telemetry_interval_sec = c.duration_sec;
  return c;
}

std::string reproduce_command(const ReplayWorkload& w, std::uint64_t seed) {
  char buf[160];
  if (w.poisson_mean_sec > 0.0) {
    std::snprintf(buf, sizeof(buf), "--jobs %zu --machines %zu --arrival poisson:%g --seed %llu",
                  w.jobs, w.machines, w.poisson_mean_sec, static_cast<unsigned long long>(seed));
  } else {
    std::snprintf(buf, sizeof(buf), "--jobs %zu --machines %zu --arrival batch --seed %llu",
                  w.jobs, w.machines, static_cast<unsigned long long>(seed));
  }
  return buf;
}

std::string reproduce_service_command(std::uint64_t seed) {
  const svc::ServiceConfig c = service_config(seed);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "--service --machines %zu --duration %.0f --arrival poisson:%g --seed %llu",
                c.machines, c.duration_sec, c.mean_interarrival_sec,
                static_cast<unsigned long long>(seed));
  return buf;
}

// The catalog tiled to `jobs` entries and its arrival times, built exactly as
// harmony-sim builds them for the same --jobs/--arrival/--seed.
struct ReplayInputs {
  std::vector<exp::WorkloadSpec> jobs;
  std::vector<double> arrivals;
};

ReplayInputs make_replay_inputs(const ReplayWorkload& w, std::uint64_t seed) {
  ReplayInputs in;
  in.jobs = exp::make_catalog();
  if (w.jobs < in.jobs.size()) in.jobs.resize(w.jobs);
  while (in.jobs.size() < w.jobs) {
    auto extra = in.jobs[in.jobs.size() % 80];
    in.jobs.push_back(extra);
  }
  in.arrivals = w.poisson_mean_sec > 0.0
                    ? exp::poisson_arrivals(w.jobs, w.poisson_mean_sec, seed)
                    : exp::batch_arrivals(w.jobs);
  return in;
}

// --- timing and spans --------------------------------------------------------

// Phases of a pass. Each is timed, and in the traced pass recorded as a
// wall-domain span whose phase index rides in TraceEvent::machine; the Chrome
// export turns that into one named track per phase.
enum Phase : std::uint32_t {
  kGenerate,
  kConstruct,
  kRun,
  kValidate,
  kIsolated,
  kSecondSeed,
  kAnalyze,
};
constexpr const char* kPhaseNames[] = {"generate inputs",    "construct", "run()",
                                       "validate_state()",   "isolated reference",
                                       "second seed",        "analysis::analyze"};

class SpanLog {
 public:
  // Runs fn and returns its wall time in seconds; records a span if enabled.
  template <class Fn>
  double time(Phase phase, Fn&& fn) {
    const double t0 = obs::Tracer::wall_now_us();
    fn();
    const double t1 = obs::Tracer::wall_now_us();
    if (recording) {
      obs::TraceEvent e;
      e.ts_us = t0;
      e.dur_us = t1 - t0;
      e.kind = obs::EventKind::kIteration;
      e.phase = obs::Phase::kComplete;
      e.clock = obs::ClockDomain::kWall;
      e.machine = phase;
      events.push_back(e);
    }
    return 1e-6 * (t1 - t0);
  }

  bool recording = false;
  std::vector<obs::TraceEvent> events;
};

// Writes the spans as Chrome trace JSON, naming each phase's track.
bool write_spans(const std::vector<obs::TraceEvent>& spans, const std::string& path) {
  std::ostringstream raw;
  obs::write_chrome_trace(spans, raw);
  std::string json = raw.str();
  for (std::uint32_t p = 0; p < std::size(kPhaseNames); ++p) {
    const std::string from = "\"name\":\"machine " + std::to_string(p) + "\"";
    const std::string to = "\"name\":\"" + std::string(kPhaseNames[p]) + "\"";
    for (auto at = json.find(from); at != std::string::npos; at = json.find(from, at))
      json.replace(at, from.size(), to);
  }
  std::ofstream out(path);
  out << json;
  return static_cast<bool>(out);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class Pass, class Field>
double median_of(const std::vector<Pass>& passes, Field field) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(field(p));
  return median(v);
}

// run() is timed by its fastest pass: on a shared host, interference from
// other tenants only ever adds time, and it slows stretches of seconds to
// minutes, which a median over one run's passes does not outlast.
template <class Pass>
const Pass& fastest(const std::vector<Pass>& passes) {
  return *std::min_element(passes.begin(), passes.end(),
                           [](const Pass& a, const Pass& b) { return a.run_s < b.run_s; });
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Calls once(i) for passes i = 0, 1, ... until `seconds` have passed, and at
// least twice. The peak resident memory is read after the first pass: what
// one harmony-sim process holds, before repeats add heap fragmentation.
template <class Once>
auto repeat(double seconds, double& first_peak_rss_mb, Once once) {
  std::vector<decltype(once(0))> passes;
  const double start = obs::Tracer::wall_now_us();
  do {
    passes.push_back(once(passes.size()));
    if (passes.size() == 1) first_peak_rss_mb = peak_rss_mb();
  } while (passes.size() < 2 || 1e-6 * (obs::Tracer::wall_now_us() - start) < seconds);
  return passes;
}

// Set-up is milliseconds or less, so beyond the one in every pass it is
// sampled this many more times on its own and reported as the median of all.
constexpr int kExtraSetupSamples = 24;

template <class Pass, class Setup>
double setup_median(const std::vector<Pass>& passes, Setup setup) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(p.gen_s + p.construct_s);
  for (int i = 0; i < kExtraSetupSamples; ++i) {
    double gen_s = 0.0;
    double construct_s = 0.0;
    setup(gen_s, construct_s);
    v.push_back(gen_s + construct_s);
  }
  return median(v);
}

// --- results -----------------------------------------------------------------

// What a seeded run must reproduce bit-for-bit on every repeat.
struct SimOutcome {
  double jct_mean_h = 0.0;
  double jct_p50_h = 0.0;
  double jct_p99_h = 0.0;
  double makespan_h = 0.0;
  bool operator==(const SimOutcome&) const = default;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets of BENCHMARK.json, in its order. Every workload reports
// every metric of its mode; a layer the workload does not exercise reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"run_s", "s"},     {"peak_rss_mb", "MB"}, {"jct_mean_h", "h"},
    {"jct_p50_h", "h"},   {"jct_p99_h", "h"}, {"makespan_h", "h"},
};
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.sim_h_per_wall_s", "h/s"},
    {"sim.queue_depth_mean", "count"},
    {"sim.queue_depth_max", "count"},
    {"harmony.sched.calls", "count"},
    {"harmony.sched.busy_s", "s"},
    {"harmony.sched.share", "ratio"},
    {"harmony.sched.us_per_call", "us"},
    {"harmony.sched.groups_per_call", "count"},
    {"harmony.spill.gc_pct", "%"},
    {"harmony.spill.alpha_mean", "ratio"},
    {"harmony.spill.oom_events", "count"},
    {"exp.self_s", "s"},
    {"exp.regroups", "count"},
    {"exp.groups_created", "count"},
    {"exp.groups_live_mean", "count"},
    {"exp.jobs_concurrent_mean", "count"},
    {"exp.migration_pause_h", "h"},
    {"exp.cpu_util_pct", "%"},
    {"exp.net_util_pct", "%"},
    {"exp.isolated_jct_mean_h", "h"},
    {"exp.jct_vs_isolated", "ratio"},
    {"exp.seed2_jct_mean_h", "h"},
    {"exp.seed2_makespan_h", "h"},
    {"exp.seed2_jct_vs_isolated", "ratio"},
    {"exp.workload_gen_s", "s"},
    {"exp.construct_s", "s"},
    {"svc.joins", "count"},
    {"svc.leaves", "count"},
    {"svc.rejected", "count"},
    {"svc.shed_pct", "%"},
    {"svc.full_reschedules", "count"},
    {"svc.repack_share", "ratio"},
    {"svc.groups_created", "count"},
    {"svc.decision_mean_us", "us"},
    {"svc.decision_p99_us", "us"},
    {"svc.events_per_s", "1/s"},
    {"svc.queue_delay_mean_s", "s"},
    {"svc.queue_delay_p99_s", "s"},
    {"check.validate_ms", "ms"},
    {"obs.trace_events", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.analyze_s", "s"},
};

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void set(const std::string& name, double value) {
    for (const MetricDef& m : metrics())
      if (name == m.name) {
        values_.emplace_back(name, value);
        return;
      }
    std::fprintf(stderr, "perfbench: metric %s is not in this mode's set\n", name.c_str());
    std::abort();
  }

  // Records a failed check; the first few are echoed to stderr.
  void fail(const std::string& what) {
    if (failures_++ < 5) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  bool correct() const { return failures_ == 0; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void print() const {
    std::string metrics;
    for (const MetricDef& m : this->metrics()) {
      double value = 0.0;
      for (const auto& [name, v] : values_)
        if (name == m.name) value = v;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.12g", value);
      if (!metrics.empty()) metrics += ", ";
      metrics += std::string("\"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 m.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
  }

 private:
  std::span<const MetricDef> metrics() const {
    return trace_ ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
  }

  bool trace_;
  std::vector<std::pair<std::string, double>> values_;
  std::size_t failures_ = 0;
};

// --- replay passes -----------------------------------------------------------

struct ReplayPass {
  double gen_s = 0.0;
  double construct_s = 0.0;
  double run_s = 0.0;
  double validate_s = 0.0;
  std::string failure;  // first failed check; empty when clean
  SimOutcome outcome;

  // Layer readings: ClusterSim accessors and the metrics-registry delta.
  exp::RunSummary summary;
  std::uint64_t events = 0;
  double sim_now_s = 0.0;
  std::size_t sched_calls = 0;
  double sched_busy_s = 0.0;
  double jobs_mean = 0.0;
  double groups_mean = 0.0;
  double alpha_mean = 0.0;
  double groups_per_call = 0.0;
  double groups_created = 0.0;
  double queue_depth_mean = 0.0;
  double queue_depth_max = 0.0;
};

SimOutcome replay_outcome(const exp::RunSummary& summary) {
  SampleSet jct;
  for (const exp::JobOutcome& j : summary.jobs) jct.add(j.jct());
  SimOutcome o;
  if (!jct.empty()) {
    o.jct_mean_h = jct.mean() / 3600.0;
    o.jct_p50_h = jct.quantile(0.5) / 3600.0;
    o.jct_p99_h = jct.quantile(0.99) / 3600.0;
  }
  o.makespan_h = summary.makespan / 3600.0;
  return o;
}

// Input generation plus construction: the set-up every run pays.
std::unique_ptr<exp::ClusterSim> replay_setup(const ReplayWorkload& w, std::uint64_t seed,
                                              bool isolated, bool validate, SpanLog& spans,
                                              double& gen_s, double& construct_s) {
  ReplayInputs in;
  gen_s = spans.time(kGenerate, [&] { in = make_replay_inputs(w, seed); });
  exp::ClusterSimConfig config =
      isolated ? exp::ClusterSimConfig::isolated() : exp::ClusterSimConfig::harmony();
  config.machines = w.machines;
  config.seed = seed;
  config.validate = validate;
  std::unique_ptr<exp::ClusterSim> sim;
  construct_s = spans.time(kConstruct, [&] {
    sim = std::make_unique<exp::ClusterSim>(config, std::move(in.jobs), std::move(in.arrivals));
  });
  return sim;
}

ReplayPass replay_once(const ReplayWorkload& w, std::uint64_t seed, bool isolated,
                       bool inject_fault, SpanLog& spans) {
  ReplayPass p;
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  // The fault makes the in-run validators throw the moment it lands.
  const auto sim = replay_setup(w, seed, isolated, inject_fault, spans, p.gen_s, p.construct_s);
  if (inject_fault)
    sim->schedule_corruption_for_test(3000.0, exp::ClusterSim::Corruption::kBadIndexEntry);

  try {
    p.run_s = spans.time(kRun, [&] { p.summary = sim->run(); });
  } catch (const check::CheckError& e) {
    p.failure = std::string("run() threw: ") + e.what();
    return p;
  }
  check::ValidationReport report;
  p.validate_s = spans.time(kValidate, [&] { report = sim->validate_state(); });
  if (!report.ok()) {
    p.failure = "validate_state(): " + report.to_string();
  } else if (p.summary.jobs.size() != w.jobs) {
    p.failure = std::to_string(p.summary.jobs.size()) + " of " + std::to_string(w.jobs) +
                " jobs finished";
  }

  p.outcome = replay_outcome(p.summary);
  p.events = sim->events_fired();
  p.sim_now_s = sim->sim_now();
  p.sched_calls = sim->sched_invocations();
  p.sched_busy_s = sim->total_sched_seconds();
  p.jobs_mean = sim->avg_concurrent_jobs();
  p.groups_mean = sim->avg_concurrent_groups();
  p.alpha_mean = sim->alpha_stats().mean;
  const obs::MetricsSnapshot snap = registry.snapshot();
  const auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  p.groups_per_call = ratio(counter("scheduler.groups_planned"), counter("scheduler.invocations"));
  p.groups_created = counter("sim.groups_created");
  // Sampled once per utilization window (a simulated minute), not per event.
  const obs::HistogramMetric& depth =
      registry.histogram("sim.event_queue_depth", 0.0, 4096.0, 64);
  p.queue_depth_mean = ratio(depth.sum(), static_cast<double>(depth.count()));
  p.queue_depth_max = depth.max();
  return p;
}

// A failed check fails every job of its pass.
void account(Report& report, const ReplayPass& p, const ReplayWorkload& w) {
  report.attempted += w.jobs;
  if (!p.failure.empty()) {
    report.fail(std::string(w.name) + ": " + p.failure);
    report.failed += w.jobs;
  }
}

void check_repeats(Report& report, const char* name, const std::vector<SimOutcome>& outcomes) {
  for (std::size_t i = 1; i < outcomes.size(); ++i)
    if (!(outcomes[i] == outcomes[0]))
      report.fail(std::string(name) + ": simulated metrics differ between repeats of one seed");
}

void report_end_to_end(Report& report, double setup_s, double run_s, double rss_mb,
                       const SimOutcome& o) {
  report.set("setup_s", setup_s);
  report.set("run_s", run_s);
  report.set("peak_rss_mb", rss_mb);
  report.set("jct_mean_h", o.jct_mean_h);
  report.set("jct_p50_h", o.jct_p50_h);
  report.set("jct_p99_h", o.jct_p99_h);
  report.set("makespan_h", o.makespan_h);
}

// Set-up and validator timings, as medians over the untraced passes.
template <class Pass>
void report_common_layers(Report& report, const std::vector<Pass>& passes) {
  report.set("exp.workload_gen_s", median_of(passes, [](const Pass& p) { return p.gen_s; }));
  report.set("exp.construct_s", median_of(passes, [](const Pass& p) { return p.construct_s; }));
  report.set("check.validate_ms",
             1e3 * median_of(passes, [](const Pass& p) { return p.validate_s; }));
}

template <class Pass>
struct TracedPasses {
  std::vector<Pass> untraced;
  std::vector<Pass> traced;

  // Fastest traced run() over the fastest untraced one, as a percentage.
  double overhead_pct() const {
    return 100.0 * (ratio(fastest(traced).run_s, fastest(untraced).run_s) - 1.0);
  }
};

// Three passes with the program's tracer on, each after one with it off, so
// drift in host speed hits both sides alike; `events` gets what the program
// recorded in the first traced pass. When the tracer stays off, one pass.
template <class Once>
auto traced_passes(bool trace_program, std::vector<obs::TraceEvent>& events, Once once) {
  auto& tracer = obs::Tracer::instance();
  TracedPasses<decltype(once())> passes;
  for (int i = 0; i < (trace_program ? 3 : 1); ++i) {
    if (trace_program) passes.untraced.push_back(once());
    tracer.clear();
    tracer.set_enabled(trace_program);
    passes.traced.push_back(once());
    tracer.set_enabled(false);
    if (i == 0) events = tracer.snapshot();
  }
  tracer.clear();
  return passes;
}

void run_replay(const ReplayWorkload& w, std::uint64_t seed, double seconds, bool trace,
                const std::string& trace_out, bool inject_fault, Report& report) {
  std::printf("reproduce: harmony-sim %s\n", reproduce_command(w, seed).c_str());
  SpanLog quiet;
  // Passes 0 and 1 replay `seed` and must agree bit-for-bit. A replay's cost
  // depends on its seed (Algorithm 1's cost per call differs by a third
  // between seeds on replay-batch), so in the end-to-end run pass i > 1
  // replays seed + i - 1 and run_s is timed over that family of seeds rather
  // than one draw. The traced run keeps to `seed`, so its counts repeat.
  const auto seed_of = [&](std::size_t i) { return trace || i < 2 ? seed : seed + i - 1; };
  double rss_mb = 0.0;
  const auto passes = repeat(seconds, rss_mb, [&](std::size_t i) {
    return replay_once(w, seed_of(i), false, inject_fault, quiet);
  });
  std::vector<SimOutcome> outcomes;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    account(report, passes[i], w);
    if (seed_of(i) == seed) outcomes.push_back(passes[i].outcome);
  }
  check_repeats(report, w.name, outcomes);
  const SimOutcome& o = passes.front().outcome;
  const ReplayPass& best = fastest(passes);
  if (!trace) {
    const double setup_s = setup_median(passes, [&](double& gen_s, double& construct_s) {
      replay_setup(w, seed, false, false, quiet, gen_s, construct_s);
    });
    report_end_to_end(report, setup_s, best.run_s, rss_mb, o);
    return;
  }

  // The traced passes, then the references, each under its own span.
  SpanLog spans;
  spans.recording = true;
  std::vector<obs::TraceEvent> program_events;
  const auto traced = traced_passes(w.trace_program, program_events, [&] {
    return replay_once(w, seed, false, inject_fault, spans);
  });
  for (const auto* side : {&traced.untraced, &traced.traced})
    for (const ReplayPass& p : *side) {
      account(report, p, w);
      check_repeats(report, w.name, {o, p.outcome});
    }

  ReplayPass iso;
  spans.time(kIsolated, [&] { iso = replay_once(w, seed, true, false, spans); });
  account(report, iso, w);

  obs::analysis::RunTotals totals;
  totals.makespan_sec = best.summary.makespan;
  for (const exp::JobOutcome& j : best.summary.jobs)
    totals.jobs.push_back({j.job, j.submit_time, j.finish_time});
  const std::size_t trace_events = program_events.size();
  const double analyze_s = spans.time(
      kAnalyze, [&] { obs::analysis::analyze(std::move(program_events), &totals); });

  // The same replay on a second seed, so no simulated figure rests on one.
  ReplayPass second;
  ReplayPass second_iso;
  spans.time(kSecondSeed, [&] {
    second = replay_once(w, seed + 1, false, false, spans);
    second_iso = replay_once(w, seed + 1, true, false, spans);
  });
  account(report, second, w);
  account(report, second_iso, w);

  // Timings come from the fastest pass; every pass here replayed `seed`.
  const exp::RunSummary& s = best.summary;
  const auto events = static_cast<double>(best.events);
  const auto calls = static_cast<double>(best.sched_calls);
  const double self_s = best.run_s - best.sched_busy_s;
  report.set("sim.events", events);
  report.set("sim.ns_per_event", 1e9 * ratio(self_s, events));
  report.set("sim.sim_h_per_wall_s", ratio(best.sim_now_s / 3600.0, best.run_s));
  report.set("sim.queue_depth_mean", best.queue_depth_mean);
  report.set("sim.queue_depth_max", best.queue_depth_max);
  report.set("harmony.sched.calls", calls);
  report.set("harmony.sched.busy_s", best.sched_busy_s);
  report.set("harmony.sched.share", ratio(best.sched_busy_s, best.run_s));
  report.set("harmony.sched.us_per_call", 1e6 * ratio(best.sched_busy_s, calls));
  report.set("harmony.sched.groups_per_call", best.groups_per_call);
  report.set("harmony.spill.gc_pct", 100.0 * s.gc_time_fraction);
  report.set("harmony.spill.alpha_mean", best.alpha_mean);
  report.set("harmony.spill.oom_events", static_cast<double>(s.oom_events));
  report.set("exp.self_s", self_s);
  report.set("exp.regroups", static_cast<double>(s.regroup_events));
  report.set("exp.groups_created", best.groups_created);
  report.set("exp.groups_live_mean", best.groups_mean);
  report.set("exp.jobs_concurrent_mean", best.jobs_mean);
  report.set("exp.migration_pause_h", s.migration_overhead_sec / 3600.0);
  report.set("exp.cpu_util_pct", 100.0 * s.avg_util.cpu);
  report.set("exp.net_util_pct", 100.0 * s.avg_util.net);
  report.set("exp.isolated_jct_mean_h", iso.outcome.jct_mean_h);
  report.set("exp.jct_vs_isolated", ratio(o.jct_mean_h, iso.outcome.jct_mean_h));
  report.set("exp.seed2_jct_mean_h", second.outcome.jct_mean_h);
  report.set("exp.seed2_makespan_h", second.outcome.makespan_h);
  report.set("exp.seed2_jct_vs_isolated",
             ratio(second.outcome.jct_mean_h, second_iso.outcome.jct_mean_h));
  report_common_layers(report, passes);
  report.set("obs.trace_events", static_cast<double>(trace_events));
  if (w.trace_program) report.set("obs.trace_overhead_pct", traced.overhead_pct());
  report.set("obs.analyze_s", analyze_s);

  if (!trace_out.empty() && !write_spans(spans.events, trace_out))
    report.fail("cannot write the Chrome trace to " + trace_out);
}

// --- service passes ----------------------------------------------------------

struct ServicePass {
  double gen_s = 0.0;
  double construct_s = 0.0;
  double run_s = 0.0;
  double validate_s = 0.0;
  std::string failure;
  SimOutcome outcome;
  svc::ServiceSummary summary;
};

std::unique_ptr<svc::Service> service_setup(std::uint64_t seed, SpanLog& spans, double& gen_s,
                                            double& construct_s) {
  std::vector<exp::WorkloadSpec> catalog;
  gen_s = spans.time(kGenerate, [&] { catalog = exp::make_catalog(); });
  std::unique_ptr<svc::Service> service;
  construct_s = spans.time(kConstruct, [&] {
    service = std::make_unique<svc::Service>(service_config(seed), std::move(catalog));
  });
  return service;
}

ServicePass service_once(std::uint64_t seed, bool inject_fault, SpanLog& spans) {
  ServicePass p;
  obs::MetricsRegistry::instance().reset();
  const auto service = service_setup(seed, spans, p.gen_s, p.construct_s);
  try {
    p.run_s = spans.time(kRun, [&] { p.summary = service->run(); });
  } catch (const check::CheckError& e) {
    p.failure = std::string("run() threw: ") + e.what();
    return p;
  }
  // Lose a machine from the free pool after the run (a full repack would
  // rebuild the pool and heal it mid-run); only the validators can tell.
  if (inject_fault) service->corrupt_for_test(core::IncrementalScheduler::Corruption::kLostMachine);
  check::ValidationReport report;
  p.validate_s = spans.time(kValidate, [&] { report = service->validate_state(); });

  const svc::ServiceSummary& s = p.summary;
  if (!report.ok()) {
    p.failure = "validate_state(): " + report.to_string();
  } else if (s.arrivals != s.admitted + s.rejected) {
    p.failure = "arrivals != admitted + rejected";
  } else if (s.scheduling_events !=
             s.incremental_joins + s.incremental_leaves + s.rejected + s.full_reschedules) {
    p.failure = "scheduling_events != joins + leaves + rejected + full_reschedules";
  } else if (s.completed != s.admitted || s.running_at_end != 0 || s.queued_at_end != 0) {
    p.failure = "admitted jobs left unfinished";
  }

  const std::string& telemetry = service->telemetry_jsonl();
  const auto end = telemetry.rfind("\"end\":");
  p.outcome.jct_mean_h = s.jct_mean / 3600.0;
  p.outcome.jct_p50_h = s.jct_p50 / 3600.0;
  p.outcome.jct_p99_h = s.jct_p99 / 3600.0;
  p.outcome.makespan_h =
      end == std::string::npos ? 0.0 : std::strtod(telemetry.c_str() + end + 6, nullptr) / 3600.0;
  if (p.failure.empty() && p.outcome.makespan_h < s.duration_sec / 3600.0)
    p.failure = "no telemetry window closed at the last departure";
  return p;
}

void account(Report& report, const ServicePass& p) {
  report.attempted += p.summary.arrivals;
  if (!p.failure.empty()) {
    report.fail("service-steady: " + p.failure);
    report.failed += std::max<std::uint64_t>(p.summary.arrivals, 1);
  }
}

void run_service(std::uint64_t seed, double seconds, bool trace, const std::string& trace_out,
                 bool inject_fault, Report& report) {
  std::printf("reproduce: harmony-sim %s\n", reproduce_service_command(seed).c_str());
  SpanLog quiet;
  double rss_mb = 0.0;
  const auto passes =
      repeat(seconds, rss_mb, [&](std::size_t) { return service_once(seed, inject_fault, quiet); });
  std::vector<SimOutcome> outcomes;
  for (const ServicePass& p : passes) {
    account(report, p);
    outcomes.push_back(p.outcome);
  }
  check_repeats(report, "service-steady", outcomes);
  const SimOutcome& o = passes.front().outcome;
  const ServicePass& best = fastest(passes);
  if (!trace) {
    const double setup_s = setup_median(passes, [&](double& gen_s, double& construct_s) {
      service_setup(seed, quiet, gen_s, construct_s);
    });
    report_end_to_end(report, setup_s, best.run_s, rss_mb, o);
    return;
  }

  SpanLog spans;
  spans.recording = true;
  std::vector<obs::TraceEvent> program_events;
  const auto traced =
      traced_passes(true, program_events, [&] { return service_once(seed, inject_fault, spans); });
  for (const auto* side : {&traced.untraced, &traced.traced})
    for (const ServicePass& p : *side) {
      account(report, p);
      check_repeats(report, "service-steady", {o, p.outcome});
    }
  const std::size_t trace_events = program_events.size();
  const double analyze_s =
      spans.time(kAnalyze, [&] { obs::analysis::analyze(std::move(program_events)); });

  const svc::ServiceSummary& s = best.summary;
  const auto events = static_cast<double>(s.scheduling_events);
  report.set("svc.joins", static_cast<double>(s.incremental_joins));
  report.set("svc.leaves", static_cast<double>(s.incremental_leaves));
  report.set("svc.rejected", static_cast<double>(s.rejected));
  report.set("svc.shed_pct", 100.0 * ratio(static_cast<double>(s.rejected),
                                           static_cast<double>(s.arrivals)));
  report.set("svc.full_reschedules", static_cast<double>(s.full_reschedules));
  report.set("svc.repack_share", ratio(static_cast<double>(s.full_reschedules), events));
  report.set("svc.groups_created", static_cast<double>(s.groups_created));
  report.set("svc.decision_mean_us", s.decision_latency_mean_us);
  report.set("svc.decision_p99_us", s.decision_latency_p99_us);
  report.set("svc.events_per_s", ratio(events, best.run_s));
  report.set("svc.queue_delay_mean_s", s.queue_delay_mean);
  report.set("svc.queue_delay_p99_s", s.queue_delay_p99);
  report_common_layers(report, passes);
  report.set("obs.trace_events", static_cast<double>(trace_events));
  report.set("obs.trace_overhead_pct", traced.overhead_pct());
  report.set("obs.analyze_s", analyze_s);

  if (!trace_out.empty() && !write_spans(spans.events, trace_out))
    report.fail("cannot write the Chrome trace to " + trace_out);
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload replay-batch|replay-poisson|service-steady\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n"
               "                 [--inject-fault]\n",
               message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool inject_fault = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = next();
      } else if (arg == "--seed") {
        seed = std::stoull(next());
      } else if (arg == "--seconds") {
        seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        trace = v == "1";
      } else if (arg == "--trace-out") {
        trace_out = next();
      } else if (arg == "--inject-fault") {
        inject_fault = true;
      } else {
        usage("unknown option '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }

  Report report(trace);
  if (workload == kReplayBatch.name) {
    run_replay(kReplayBatch, seed, seconds, trace, trace_out, inject_fault, report);
  } else if (workload == kReplayPoisson.name) {
    run_replay(kReplayPoisson, seed, seconds, trace, trace_out, inject_fault, report);
  } else if (workload == "service-steady") {
    run_service(seed, seconds, trace, trace_out, inject_fault, report);
  } else {
    usage("unknown workload '" + workload + "'");
  }
  report.print();
  return report.correct() ? 0 : 1;
}
