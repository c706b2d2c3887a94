#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scratch_dir.h"

namespace harmony::obs {
namespace {

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
};

TEST_F(TracerTest, DisabledRecordsNothing) {
  EXPECT_FALSE(Tracer::enabled());
  Tracer::complete(EventKind::kSubtaskComp, ClockDomain::kSim, 0.0, 10.0, 1);
  Tracer::instant(EventKind::kSchedule, ClockDomain::kSim, 5.0);
  EXPECT_EQ(Tracer::instance().size(), 0u);
}

TEST_F(TracerTest, EnabledRecordsAndSnapshotSortsByTime) {
  Tracer::instance().set_enabled(true);
  Tracer::complete(EventKind::kSubtaskComp, ClockDomain::kSim, 30.0, 5.0, 2);
  Tracer::instant(EventKind::kSchedule, ClockDomain::kSim, 10.0);
  Tracer::complete(EventKind::kSubtaskPull, ClockDomain::kSim, 20.0, 2.0, 2);
  const auto events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 10.0);
  EXPECT_DOUBLE_EQ(events[1].ts_us, 20.0);
  EXPECT_DOUBLE_EQ(events[2].ts_us, 30.0);
  EXPECT_EQ(events[2].kind, EventKind::kSubtaskComp);
  EXPECT_EQ(events[2].job, 2u);
}

TEST_F(TracerTest, SimSortsBeforeWallDomain) {
  Tracer::instance().set_enabled(true);
  Tracer::instant(EventKind::kSpill, ClockDomain::kWall, 1.0, 0);
  Tracer::instant(EventKind::kSchedule, ClockDomain::kSim, 99.0);
  const auto events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].clock, ClockDomain::kSim);
  EXPECT_EQ(events[1].clock, ClockDomain::kWall);
}

TEST_F(TracerTest, ClearDropsEvents) {
  Tracer::instance().set_enabled(true);
  Tracer::instant(EventKind::kRegroup, ClockDomain::kSim, 1.0);
  EXPECT_EQ(Tracer::instance().size(), 1u);
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().size(), 0u);
  Tracer::instant(EventKind::kRegroup, ClockDomain::kSim, 2.0);
  EXPECT_EQ(Tracer::instance().size(), 1u);
}

TEST_F(TracerTest, WallSpanRecordsCompleteEvent) {
  Tracer::instance().set_enabled(true);
  { WallSpan span(EventKind::kSubtaskComp, /*job=*/7, kNoEntity, /*machine=*/3); }
  const auto events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kSubtaskComp);
  EXPECT_EQ(events[0].phase, Phase::kComplete);
  EXPECT_EQ(events[0].clock, ClockDomain::kWall);
  EXPECT_EQ(events[0].job, 7u);
  EXPECT_EQ(events[0].machine, 3u);
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST_F(TracerTest, WallSpanArmedAtConstructionNotDestruction) {
  // A span opened while tracing is off must not record, even if tracing is
  // turned on before it closes (its start time was never taken).
  WallSpan* span = new WallSpan(EventKind::kSubtaskPull, 1);  // lint: allow-naked-new
  Tracer::instance().set_enabled(true);
  delete span;  // lint: allow-naked-new
  EXPECT_EQ(Tracer::instance().size(), 0u);
}

TEST_F(TracerTest, MultithreadedRecordingLosesNothing) {
  Tracer::instance().set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        Tracer::complete(EventKind::kSubtaskComp, ClockDomain::kWall,
                         static_cast<double>(i), 1.0, static_cast<std::uint32_t>(t));
    });
  }
  for (auto& th : threads) th.join();
  const auto events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> per_job(kThreads, 0);
  for (const auto& e : events) {
    ASSERT_LT(e.job, static_cast<std::uint32_t>(kThreads));
    ++per_job[e.job];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_job[t], kPerThread);
}

TEST_F(TracerTest, ChromeTraceExportIsValidJson) {
  Tracer::instance().set_enabled(true);
  Tracer::complete(EventKind::kSubtaskComp, ClockDomain::kSim, 100.0, 50.0, /*job=*/0,
                   /*group=*/1);
  Tracer::instant(EventKind::kRegroup, ClockDomain::kSim, 120.0);
  Tracer::complete(EventKind::kSubtaskPush, ClockDomain::kWall, 10.0, 5.0, /*job=*/1,
                   kNoEntity, /*machine=*/2, /*bytes=*/4096);
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);

  const auto doc = json::parse_json(out.str());
  EXPECT_EQ(doc.at("displayTimeUnit").string(), "ms");
  const auto& events = doc.at("traceEvents").array();
  std::size_t x_events = 0, instants = 0, metadata = 0;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").string();
    if (ph == "M") {
      ++metadata;
      EXPECT_TRUE(e.at("name").string() == "process_name" ||
                  e.at("name").string() == "thread_name");
      continue;
    }
    EXPECT_TRUE(ph == "X" || ph == "i");
    if (ph == "X") {
      ++x_events;
      EXPECT_GE(e.at("dur").number(), 0.0);
    } else {
      ++instants;
    }
    EXPECT_TRUE(e.contains("pid"));
    EXPECT_TRUE(e.contains("tid"));
    EXPECT_TRUE(e.contains("ts"));
  }
  EXPECT_EQ(x_events, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_GT(metadata, 0u);
}

TEST(MetricsRegistryTest, CountersAccumulate) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  auto& c = reg.counter("test.counter");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name resolves to the same metric.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
}

TEST(MetricsRegistryTest, GaugesHoldLastValue) {
  auto& reg = MetricsRegistry::instance();
  auto& g = reg.gauge("test.gauge");
  g.set(2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(MetricsRegistryTest, HistogramTracksAggregates) {
  auto& reg = MetricsRegistry::instance();
  auto& h = reg.histogram("test.hist", 0.0, 10.0, 5);
  h.reset();
  h.observe(1.0);
  h.observe(3.0);
  h.observe(100.0);  // clamps into the top bin but aggregates keep the raw value
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // First registration fixes the shape; repeat lookups ignore new shapes.
  EXPECT_EQ(&reg.histogram("test.hist", 0.0, 1.0, 2), &h);
}

TEST(MetricsRegistryTest, PercentileOnUniformDistribution) {
  auto& h = MetricsRegistry::instance().histogram("test.pct_uniform", 0.0, 100.0, 100);
  h.reset();
  // 1000 samples spread uniformly over [0, 100): ten per one-unit bin.
  for (int i = 0; i < 1000; ++i) h.observe((i + 0.5) / 10.0);
  // With uniform mass, linear interpolation recovers the quantile to within
  // the sub-bin spacing.
  EXPECT_NEAR(h.percentile(0.50), 50.0, 0.2);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 0.2);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 0.2);
  // Extremes clamp to the observed envelope.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(1.0), h.max());
}

TEST(MetricsRegistryTest, PercentileOnPointMassAndSkew) {
  auto& point = MetricsRegistry::instance().histogram("test.pct_point", 0.0, 10.0, 10);
  point.reset();
  for (int i = 0; i < 100; ++i) point.observe(4.2);
  // Every quantile of a point mass is the point: the clamp to [min, max]
  // makes the bin interpolation exact.
  EXPECT_DOUBLE_EQ(point.percentile(0.01), 4.2);
  EXPECT_DOUBLE_EQ(point.percentile(0.50), 4.2);
  EXPECT_DOUBLE_EQ(point.percentile(0.99), 4.2);

  auto& skew = MetricsRegistry::instance().histogram("test.pct_skew", 0.0, 10.0, 10);
  skew.reset();
  // 90 samples in [0, 1), 10 in [9, 10): p50 sits in the first bin, p95 in
  // the last.
  for (int i = 0; i < 90; ++i) skew.observe(0.5);
  for (int i = 0; i < 10; ++i) skew.observe(9.5);
  EXPECT_LT(skew.percentile(0.50), 1.0);
  EXPECT_GT(skew.percentile(0.95), 9.0);

  auto& empty = MetricsRegistry::instance().histogram("test.pct_empty", 0.0, 1.0, 4);
  empty.reset();
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
}

TEST(MetricsRegistryTest, SnapshotJsonCarriesPercentiles) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  auto& h = reg.histogram("test.pct_snapshot", 0.0, 100.0, 100);
  h.reset();
  for (int i = 0; i < 1000; ++i) h.observe((i + 0.5) / 10.0);
  const auto doc = json::parse_json(reg.snapshot_json());
  const auto& hist = doc.at("histograms").at("test.pct_snapshot");
  EXPECT_NEAR(hist.at("p50").number(), 50.0, 0.2);
  EXPECT_NEAR(hist.at("p95").number(), 95.0, 0.2);
  EXPECT_NEAR(hist.at("p99").number(), 99.0, 0.2);
}

TEST(MetricsRegistryTest, CounterUpdatesAreThreadSafe) {
  auto& c = MetricsRegistry::instance().counter("test.mt_counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotJsonRoundTrips) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  reg.counter("snap.counter").add(42);
  reg.gauge("snap.gauge").set(1.5);
  auto& h = reg.histogram("snap.hist", 0.0, 4.0, 4);
  h.reset();
  h.observe(0.5);
  h.observe(3.5);

  const auto doc = json::parse_json(reg.snapshot_json());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("snap.counter").number(), 42.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("snap.gauge").number(), 1.5);
  const auto& hist = doc.at("histograms").at("snap.hist");
  EXPECT_DOUBLE_EQ(hist.at("count").number(), 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number(), 4.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number(), 0.5);
  EXPECT_DOUBLE_EQ(hist.at("max").number(), 3.5);
  const auto& bins = hist.at("bins").array();
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_DOUBLE_EQ(bins[0].number(), 1.0);
  EXPECT_DOUBLE_EQ(bins[3].number(), 1.0);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  auto& reg = MetricsRegistry::instance();
  auto& c = reg.counter("reset.counter");
  c.add(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&reg.counter("reset.counter"), &c);
}

TEST(MetricsRegistryTest, BenchReportAttachKeepsJsonValid) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  reg.counter("attach.counter").add(9);

  const std::string path = (tests::scratch_dir("bench-attach") / "report.json").string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\n\"benchmarks\": [{\"name\": \"BM_Fake\", \"real_time\": 1.0}]\n}\n";
  }
  ASSERT_TRUE(bench::attach_metrics_snapshot(path));

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = json::parse_json(buf.str());
  EXPECT_EQ(doc.at("benchmarks").array().size(), 1u);
  EXPECT_DOUBLE_EQ(
      doc.at("harmony_metrics").at("counters").at("attach.counter").number(), 9.0);
  std::remove(path.c_str());
}

TEST(MetricsRegistryTest, BenchReportAttachRejectsMissingFile) {
  EXPECT_FALSE(bench::attach_metrics_snapshot("/nonexistent/dir/report.json"));
}

namespace {

// Per test (and per process): ctest -j runs the cases that share this
// fixture in parallel.
std::string attach_fixture_path() {
  return (tests::scratch_dir("bench-attach") / "report.json").string();
}

std::string write_and_attach(const std::string& content, bool* ok) {
  const std::string path = attach_fixture_path();
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }
  *ok = bench::attach_metrics_snapshot(path);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  return buf.str();
}

}  // namespace

TEST(MetricsRegistryTest, BenchReportAttachHandlesEmptyRootObject) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  reg.counter("attach.empty_root").add(3);
  // An empty root object must gain the member with no leading comma.
  bool ok = false;
  const std::string result = write_and_attach("{}\n", &ok);
  ASSERT_TRUE(ok);
  const auto doc = json::parse_json(result);
  EXPECT_DOUBLE_EQ(
      doc.at("harmony_metrics").at("counters").at("attach.empty_root").number(), 3.0);

  // Same with interior whitespace in the empty object.
  const std::string spaced = write_and_attach("{  \n }\n", &ok);
  ASSERT_TRUE(ok);
  json::parse_json(spaced);  // throws on invalid splice
}

TEST(MetricsRegistryTest, BenchReportAttachRejectsNonObjectDocuments) {
  bool ok = true;
  // A JSON array ends in ']': no root object brace to splice before.
  write_and_attach("[1, 2, 3]\n", &ok);
  EXPECT_FALSE(ok);
  // A '}' that is not the document's final token must not be spliced into.
  write_and_attach("{\"a\": 1} trailing junk\n", &ok);
  EXPECT_FALSE(ok);
  // Non-JSON content without any brace.
  write_and_attach("hello world\n", &ok);
  EXPECT_FALSE(ok);
  // A lone closing brace is not an object.
  write_and_attach("}\n", &ok);
  EXPECT_FALSE(ok);
}

TEST(HistogramStatePercentileTest, WindowPercentileClampsToOccupiedBins) {
  // Six samples in bin [0, 50): raw min/max don't survive deltas, so the
  // quantile is interpolated within the occupied-bin envelope.
  MetricsSnapshot::HistogramState h;
  h.lo = 0.0;
  h.hi = 500.0;
  h.bins = {6, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  h.count = 6;
  const double p50 = histogram_state_percentile(h, 0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 50.0);
  // All mass in the top bin: p99 stays inside [450, 500].
  MetricsSnapshot::HistogramState top;
  top.lo = 0.0;
  top.hi = 500.0;
  top.bins = {0, 0, 0, 0, 0, 0, 0, 0, 0, 4};
  top.count = 4;
  const double p99 = histogram_state_percentile(top, 0.99);
  EXPECT_GE(p99, 450.0);
  EXPECT_LE(p99, 500.0);
  // Mass split across bins 1 and 8: median lands in the low occupied bin,
  // p99 in the high one, and both respect the envelope.
  MetricsSnapshot::HistogramState split;
  split.lo = 0.0;
  split.hi = 500.0;
  split.bins = {0, 10, 0, 0, 0, 0, 0, 0, 10, 0};
  split.count = 20;
  EXPECT_LE(histogram_state_percentile(split, 0.25), 100.0);
  EXPECT_GE(histogram_state_percentile(split, 0.99), 400.0);
  EXPECT_LE(histogram_state_percentile(split, 0.99), 450.0);
  // An empty window (no sample since the last one) reads 0, not an edge.
  MetricsSnapshot::HistogramState empty;
  empty.lo = 0.0;
  empty.hi = 10.0;
  empty.bins = {0, 0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_state_percentile(empty, 0.99), 0.0);
}

TEST(MetricsRegistryTest, BenchReportAttachLeavesRejectedFileUntouched) {
  const std::string path = attach_fixture_path();
  const std::string original = "[\"not\", \"an\", \"object\"]\n";
  {
    std::ofstream out(path, std::ios::trunc);
    out << original;
  }
  EXPECT_FALSE(bench::attach_metrics_snapshot(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), original);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace harmony::obs
