// Live telemetry stack: TimeSeriesEngine windowing/filtering/JSONL, the
// Prometheus exposition, SLO parsing and the burn-rate alert state machine,
// service-mode end-to-end telemetry determinism, and the flight recorder's
// ring/dump behavior (including dump-on-corruption through check::fail).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/json.h"
#include "exp/workload.h"
#include "harmony/incremental.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "svc/service.h"

namespace harmony {
namespace {

using obs::AlertState;
using obs::MetricsRegistry;
using obs::SloKind;
using obs::SloMonitor;
using obs::SloSpec;
using obs::TelemetryWindow;
using obs::TimeSeriesConfig;
using obs::TimeSeriesEngine;

// ---------------------------------------------------------------------------
// TimeSeriesEngine

// Registry metrics live for the process; tests here use a "tst." prefix so
// the include-filter isolates them from everything else in this binary.
TimeSeriesConfig tst_config() {
  TimeSeriesConfig config;
  config.include_prefixes = {"tst."};
  config.exclude = {"tst.wall_us"};
  return config;
}

TEST(TimeSeriesEngine, WindowsDeltaRateAndFilter) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  auto& events = reg.counter("tst.events");
  auto& wall = reg.counter("tst.wall_us");       // excluded by exact name
  auto& foreign = reg.counter("other.events");   // excluded by prefix
  auto& depth = reg.gauge("tst.depth");
  auto& lat = reg.histogram("tst.latency", 0.0, 100.0, 10);

  TimeSeriesEngine engine(tst_config(), reg);
  events.add(30);
  wall.add(999);
  foreign.add(7);
  depth.set(4.0);
  lat.observe(10.0);
  lat.observe(95.0);

  const TelemetryWindow w0 = engine.sample(60.0);
  EXPECT_EQ(w0.index, 0u);
  EXPECT_DOUBLE_EQ(w0.start_sec, 0.0);
  EXPECT_DOUBLE_EQ(w0.end_sec, 60.0);
  EXPECT_EQ(w0.counter_deltas.at("tst.events"), 30u);
  EXPECT_DOUBLE_EQ(w0.rate("tst.events"), 0.5);  // 30 over a 60 s window
  EXPECT_EQ(w0.counter_deltas.count("tst.wall_us"), 0u);
  EXPECT_EQ(w0.counter_deltas.count("other.events"), 0u);
  EXPECT_DOUBLE_EQ(w0.gauges.at("tst.depth"), 4.0);
  EXPECT_EQ(w0.histograms.at("tst.latency").count, 2u);

  // Second window sees only what happened since the first sample. A gauge
  // is a level, not a flow, and a series registered mid-window contributes
  // its whole value.
  events.add(6);
  depth.set(9.0);
  reg.counter("tst.late").add(3);
  const TelemetryWindow w1 = engine.sample(120.0);
  EXPECT_EQ(w1.index, 1u);
  EXPECT_DOUBLE_EQ(w1.start_sec, 60.0);
  EXPECT_EQ(w1.counter_deltas.at("tst.events"), 6u);
  EXPECT_EQ(w1.histograms.at("tst.latency").count, 0u);
  EXPECT_DOUBLE_EQ(w1.gauges.at("tst.depth"), 9.0);
  EXPECT_EQ(w1.counter_deltas.at("tst.late"), 3u);

  // A reset between samples makes the counter (36 -> 4) and the histogram
  // (2 -> 1 samples) run backwards: the window restarts from zero and takes
  // their whole current values, never an unsigned wraparound.
  reg.reset();
  events.add(4);
  lat.observe(20.0);
  const TelemetryWindow w2 = engine.sample(180.0);
  EXPECT_EQ(w2.counter_deltas.at("tst.events"), 4u);
  const auto& h2 = w2.histograms.at("tst.latency");
  EXPECT_EQ(h2.count, 1u);
  EXPECT_DOUBLE_EQ(h2.sum, 20.0);
}

TEST(TimeSeriesEngine, BaselineAtConstructionHidesPriorAccumulation) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  auto& ctr = reg.counter("tst.preexisting");
  ctr.add(1000);  // accumulated before the engine existed
  TimeSeriesEngine engine(tst_config(), reg);
  ctr.add(5);
  EXPECT_EQ(engine.sample(60.0).counter_deltas.at("tst.preexisting"), 5u);
}

// The engine keeps no window ring; every window it returns carries the next
// index.
TEST(TimeSeriesEngine, RingEvictsOldestButIndicesStayMonotone) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  reg.counter("tst.tick");
  TimeSeriesEngine engine(tst_config(), reg);
  for (std::uint64_t i = 0; i < 6; ++i)
    EXPECT_EQ(engine.sample(60.0 * static_cast<double>(i + 1)).index, i);
}

TEST(TimeSeriesEngine, JsonlIsByteDeterministicAndParses) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  reg.counter("tst.events").add(12);
  reg.gauge("tst.depth").set(2.5);
  reg.histogram("tst.latency", 0.0, 100.0, 10).observe(42.0);
  TimeSeriesConfig config = tst_config();
  config.exclude.clear();
  // Two engines over the same registry state produce identical lines.
  TimeSeriesEngine a(config, reg);
  TimeSeriesEngine b(config, reg);
  reg.counter("tst.events").add(3);
  const TelemetryWindow wa = a.sample(60.0);
  const std::string la = TimeSeriesEngine::to_jsonl(wa, "");
  const std::string lb = TimeSeriesEngine::to_jsonl(b.sample(60.0), "");
  EXPECT_EQ(la, lb);
  ASSERT_FALSE(la.empty());
  // One line per window; the newline separator is the sink's job.
  EXPECT_EQ(la.back(), '}');
  EXPECT_EQ(la.rfind("{\"schema\":\"harmony-telemetry-v1\",\"window\":0,", 0), 0u);

  const auto doc = json::parse_json(la);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("tst.events").number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("rates").at("tst.events").number(), 3.0 / 60.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("tst.depth").number(), 2.5);
  EXPECT_DOUBLE_EQ(doc.at("histograms").at("tst.latency").at("count").number(), 0.0);

  // The extra fragment splices before the closing brace and stays valid JSON.
  const std::string spliced = TimeSeriesEngine::to_jsonl(
      wa, ",\"slos\":[{\"name\":\"x\",\"state\":\"inactive\","
          "\"value\":0,\"breached\":0}]");
  const auto doc2 = json::parse_json(spliced);
  EXPECT_EQ(doc2.at("slos").array().size(), 1u);
}

TEST(TimeSeriesEngine, PrometheusExpositionShape) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  reg.counter("tst.events").add(12);
  reg.gauge("tst.queue-depth").set(3.0);
  auto& lat = reg.histogram("tst.latency", 0.0, 100.0, 4);
  lat.observe(10.0);
  lat.observe(80.0);
  TimeSeriesEngine engine(tst_config(), reg);
  const std::string text = obs::prometheus_text(engine.filtered_snapshot());

  EXPECT_NE(text.find("# TYPE harmony_tst_events_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("harmony_tst_events_total 12\n"), std::string::npos);
  // '-' sanitized to '_'; gauges keep their name unsuffixed.
  EXPECT_NE(text.find("# TYPE harmony_tst_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE harmony_tst_latency histogram\n"), std::string::npos);
  EXPECT_NE(text.find("harmony_tst_latency_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("harmony_tst_latency_count 2\n"), std::string::npos);
  // The wall-fed series is filtered out of the exposition too.
  EXPECT_EQ(text.find("tst_wall_us"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SLO parsing

TEST(ParseSlo, RecognizedNamesAndBounds) {
  SloSpec spec;
  std::string error;
  ASSERT_TRUE(obs::parse_slo("queue-delay-p99=120", spec, error)) << error;
  EXPECT_EQ(spec.kind, SloKind::kQueueDelayP99);
  EXPECT_DOUBLE_EQ(spec.threshold, 120.0);

  ASSERT_TRUE(obs::parse_slo("rejection-rate=0.05", spec, error)) << error;
  EXPECT_EQ(spec.kind, SloKind::kRejectionRate);

  ASSERT_TRUE(obs::parse_slo("drift-escalation-rate=4", spec, error)) << error;
  EXPECT_EQ(spec.kind, SloKind::kDriftEscalationRate);

  ASSERT_TRUE(obs::parse_slo("sched-throughput-floor=0.25", spec, error)) << error;
  EXPECT_EQ(spec.kind, SloKind::kSchedThroughputFloor);
  EXPECT_DOUBLE_EQ(spec.threshold, 0.25);
}

TEST(ParseSlo, RejectsMalformedSpecs) {
  SloSpec spec;
  std::string error;
  EXPECT_FALSE(obs::parse_slo("not-an-objective=1", spec, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::parse_slo("queue-delay-p99", spec, error));     // no '='
  EXPECT_FALSE(obs::parse_slo("queue-delay-p99=", spec, error));    // no number
  EXPECT_FALSE(obs::parse_slo("queue-delay-p99=12x", spec, error)); // trailing junk
  // A threshold that no window value can cross, or that only strtod reads.
  for (const char* bad : {"queue-delay-p99=nan", "queue-delay-p99=inf", "queue-delay-p99= 5",
                          "rejection-rate=1e999"}) {
    error.clear();
    EXPECT_FALSE(obs::parse_slo(bad, spec, error)) << bad;
    EXPECT_NE(error.find("bad SLO threshold"), std::string::npos) << bad;
  }
}

// ---------------------------------------------------------------------------
// SLO alert state machine (synthetic window stream)

TelemetryWindow synthetic_window(std::uint64_t index, double queue_delay_p99,
                                 std::uint64_t sched_events = 100) {
  TelemetryWindow w;
  w.index = index;
  w.start_sec = 60.0 * static_cast<double>(index);
  w.end_sec = w.start_sec + 60.0;
  w.histograms["svc.queue_delay_sec"] = {queue_delay_p99 > 0.0 ? 1u : 0u,
                                         queue_delay_p99, queue_delay_p99,
                                         queue_delay_p99};
  w.counter_deltas["svc.scheduling_events"] = sched_events;
  return w;
}

TEST(SloMonitor, DefaultBurnRateNeedsFastAndSlowWindows) {
  SloSpec spec;
  std::string error;
  ASSERT_TRUE(obs::parse_slo("queue-delay-p99=100", spec, error));
  SloMonitor monitor(spec);

  // Every window breaches. fast (3/3) saturates at window 3, but the slow
  // fraction is over the *nominal* 12 windows, so burning starts at 6/12.
  for (std::uint64_t i = 0; i < 5; ++i) {
    monitor.evaluate(synthetic_window(i, 250.0));
    EXPECT_EQ(monitor.state(), AlertState::kInactive) << "window " << i;
  }
  ASSERT_TRUE(monitor.evaluate(synthetic_window(5, 250.0)));
  EXPECT_EQ(monitor.state(), AlertState::kPending);
  EXPECT_EQ(monitor.pages(), 0u);
  ASSERT_TRUE(monitor.evaluate(synthetic_window(6, 250.0)));  // 2nd confirmation
  EXPECT_EQ(monitor.state(), AlertState::kFiring);
  EXPECT_EQ(monitor.pages(), 1u);
  EXPECT_TRUE(monitor.last_breached());
  EXPECT_DOUBLE_EQ(monitor.last_value(), 250.0);

  // One healthy window breaks the fast burn: firing -> resolved.
  ASSERT_TRUE(monitor.evaluate(synthetic_window(7, 10.0)));
  EXPECT_EQ(monitor.state(), AlertState::kResolved);
  EXPECT_EQ(monitor.pages(), 1u);
}

TEST(SloMonitor, LowerBoundFloorFiresOnStarvation) {
  SloSpec spec;
  std::string error;
  ASSERT_TRUE(obs::parse_slo("sched-throughput-floor=1.0", spec, error));
  SloMonitor monitor(spec);

  // 12 events / 60 s = 0.2 events/s, under the 1.0 floor: six starved
  // windows burn (6/12 slow), the seventh confirms.
  std::uint64_t i = 0;
  for (; i < 6; ++i) monitor.evaluate(synthetic_window(i, 0.0, /*sched_events=*/12));
  EXPECT_EQ(monitor.state(), AlertState::kPending);
  ASSERT_TRUE(monitor.evaluate(synthetic_window(i++, 0.0, 12)));
  EXPECT_EQ(monitor.state(), AlertState::kFiring);
  EXPECT_EQ(monitor.pages(), 1u);
  // Healthy throughput resolves; a second starved stretch pages again.
  ASSERT_TRUE(monitor.evaluate(synthetic_window(i++, 0.0, 600)));
  EXPECT_EQ(monitor.state(), AlertState::kResolved);
  for (const AlertState want : {AlertState::kResolved, AlertState::kResolved,
                                AlertState::kPending, AlertState::kFiring}) {
    monitor.evaluate(synthetic_window(i++, 0.0, 0));
    EXPECT_EQ(monitor.state(), want) << "window " << i - 1;
  }
  EXPECT_EQ(monitor.pages(), 2u);
}

TEST(SloMonitor, PendingFallsBackWhenBurnDoesNotConfirm) {
  SloSpec spec;
  std::string error;
  ASSERT_TRUE(obs::parse_slo("queue-delay-p99=100", spec, error));
  SloMonitor monitor(spec);

  for (std::uint64_t i = 0; i < 5; ++i) monitor.evaluate(synthetic_window(i, 500.0));
  ASSERT_TRUE(monitor.evaluate(synthetic_window(5, 500.0)));
  EXPECT_EQ(monitor.state(), AlertState::kPending);
  // The next window is healthy: never fired, so fall back to inactive.
  ASSERT_TRUE(monitor.evaluate(synthetic_window(6, 5.0)));
  EXPECT_EQ(monitor.state(), AlertState::kInactive);
  EXPECT_EQ(monitor.pages(), 0u);
  const std::string json = monitor.state_json();
  EXPECT_NE(json.find("\"state\":\"inactive\""), std::string::npos);
  EXPECT_NE(json.find("\"breached\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Service end-to-end telemetry

svc::ServiceConfig telemetry_service_config() {
  svc::ServiceConfig config;
  config.machines = 120;
  config.duration_sec = 4000.0;
  config.mean_interarrival_sec = 20.0;
  config.queue_capacity = 64;
  config.seed = 9;
  config.telemetry_interval_sec = 300.0;
  return config;
}

TEST(ServiceTelemetry, JsonlIsByteIdenticalAcrossRunsAndValidators) {
  const auto catalog = exp::make_catalog();
  // Byte-identity holds for runs whose engines baseline against the same
  // registry state; reset puts each run in the CLI's one-service-per-process
  // position. (Without it, histogram sums would differ in the low float
  // bits: (S + x) - S != x once the shared registry has accumulated S.)
  MetricsRegistry::instance().reset();
  svc::Service a(telemetry_service_config(), catalog);
  const auto sa = a.run();
  const std::string ja = a.telemetry_jsonl();

  auto validated = telemetry_service_config();
  validated.validate_every_events = 32;
  MetricsRegistry::instance().reset();
  svc::Service b(validated, catalog);
  const auto sb = b.run();

  EXPECT_GT(sa.telemetry_windows, 0u);
  EXPECT_EQ(sa.telemetry_windows, sb.telemetry_windows);
  ASSERT_FALSE(ja.empty());
  EXPECT_EQ(ja, b.telemetry_jsonl());  // validators must not perturb telemetry
  EXPECT_GT(sb.validations_run, 0u);
  EXPECT_EQ(sa.report(), sb.report());

  // Every line follows the v1 schema and the window indices are monotone.
  std::istringstream lines(ja);
  std::string line;
  std::uint64_t expected = 0;
  while (std::getline(lines, line)) {
    const auto doc = json::parse_json(line);
    EXPECT_EQ(doc.at("schema").string(), "harmony-telemetry-v1");
    EXPECT_DOUBLE_EQ(doc.at("window").number(), static_cast<double>(expected++));
  }
  EXPECT_EQ(expected, sa.telemetry_windows);
}

TEST(ServiceTelemetry, ImpossibleThroughputFloorPages) {
  auto config = telemetry_service_config();
  SloSpec spec;
  std::string error;
  ASSERT_TRUE(obs::parse_slo("sched-throughput-floor=1000000", spec, error));
  config.slos.push_back(spec);

  svc::Service service(config, exp::make_catalog());
  const auto s = service.run();
  EXPECT_GT(s.slo_pages, 0u);
  ASSERT_EQ(service.slo_monitors().size(), 1u);
  EXPECT_GT(service.slo_monitors()[0].pages(), 0u);
  // The report's telemetry block names the objective.
  EXPECT_NE(s.report().find("sched-throughput-floor"), std::string::npos);
  EXPECT_NE(s.report().find("telemetry windows"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("harmony_flight_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    obs::FlightRecorder::instance().disarm();
    std::filesystem::remove_all(dir_);
  }
  std::filesystem::path dir_;
};

obs::TraceEvent sim_instant(double t_sec, std::uint32_t job) {
  obs::TraceEvent e;
  e.ts_us = t_sec * 1e6;
  e.kind = obs::EventKind::kArrival;
  e.phase = obs::Phase::kInstant;
  e.clock = obs::ClockDomain::kSim;
  e.job = job;
  return e;
}

TEST_F(FlightRecorderTest, RingIsBoundedAndDumpCountIsCapped) {
  using obs::FlightRecorder;
  auto& recorder = FlightRecorder::instance();
  recorder.arm(dir_.string());
  for (std::uint32_t i = 0; i < FlightRecorder::kRingCapacity + 4; ++i)
    recorder.append(sim_instant(i, i));
  EXPECT_EQ(recorder.ring_size(), FlightRecorder::kRingCapacity);

  for (std::uint64_t i = 0; i < FlightRecorder::kMaxDumps; ++i)
    EXPECT_TRUE(recorder.dump("test-dump", "dump " + std::to_string(i)));
  EXPECT_FALSE(recorder.dump("test-dump", "over the cap"));  // disk-fill guard
  EXPECT_EQ(recorder.dumps(), FlightRecorder::kMaxDumps);

  const std::string last = std::to_string(FlightRecorder::kMaxDumps - 1);
  const std::string over = std::to_string(FlightRecorder::kMaxDumps);
  ASSERT_TRUE(std::filesystem::exists(dir_ / "flight-0.context.json"));
  ASSERT_TRUE(std::filesystem::exists(dir_ / ("flight-" + last + ".trace.json")));
  EXPECT_FALSE(std::filesystem::exists(dir_ / ("flight-" + over + ".context.json")));

  // The trace half loads as JSON and carries the ring (the newest events).
  const auto trace = json::parse_json(slurp(dir_ / "flight-0.trace.json"));
  EXPECT_GE(trace.at("traceEvents").array().size(), FlightRecorder::kRingCapacity);
  const auto context = json::parse_json(slurp(dir_ / "flight-0.context.json"));
  EXPECT_EQ(context.at("schema").string(), "harmony-flight-v1");
  EXPECT_EQ(context.at("reason").string(), "test-dump");
  EXPECT_DOUBLE_EQ(context.at("events_in_ring").number(),
                   static_cast<double>(FlightRecorder::kRingCapacity));
}

TEST_F(FlightRecorderTest, DisarmedRecorderIsInert) {
  auto& recorder = obs::FlightRecorder::instance();
  recorder.disarm();
  recorder.append(sim_instant(1.0, 1));
  EXPECT_FALSE(recorder.dump("nobody-home"));
  EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_F(FlightRecorderTest, CorruptionDumpNamesTheFailingValidator) {
  auto& recorder = obs::FlightRecorder::instance();
  recorder.arm(dir_.string());

  auto config = telemetry_service_config();
  svc::Service service(config, exp::make_catalog());
  service.run();  // run() stamps seed/machines context while armed
  ASSERT_TRUE(service.validate_state().ok());

  service.corrupt_for_test(core::IncrementalScheduler::Corruption::kLostMachine);
  const auto report = service.validate_state();
  ASSERT_FALSE(report.ok());
  // The same path maybe_validate() takes on a mid-run failure: check::fail
  // pulls the flight-recorder handle, then throws.
  EXPECT_THROW(check::fail(report.failures.front()), check::CheckError);

  ASSERT_TRUE(std::filesystem::exists(dir_ / "flight-0.context.json"));
  const std::string context = slurp(dir_ / "flight-0.context.json");
  EXPECT_NE(context.find("\"reason\": \"check-failure\""), std::string::npos);
  EXPECT_NE(context.find("\"validator\": \"svc.service\""), std::string::npos);
  EXPECT_NE(context.find("\"seed\""), std::string::npos);  // run() context
  const auto trace = json::parse_json(slurp(dir_ / "flight-0.trace.json"));
  EXPECT_GT(trace.at("traceEvents").array().size(), 0u);  // arrivals/departures ring
}

}  // namespace
}  // namespace harmony
