#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/metrics.h"

namespace harmony::exp {
namespace {

std::size_t count_rows(const std::string& tsv) {
  std::size_t rows = 0;
  for (char c : tsv) rows += c == '\n';
  return rows;
}

TEST(UtilizationTimeline, EmptyAveragesToZero) {
  UtilizationTimeline tl;
  EXPECT_DOUBLE_EQ(tl.average_until(1e9).cpu, 0.0);
  EXPECT_DOUBLE_EQ(tl.average_until(1e9).net, 0.0);
  EXPECT_TRUE(tl.tsv().empty());
}

TEST(UtilizationTimeline, AverageIsSampleMean) {
  UtilizationTimeline tl;
  tl.add({0.2, 0.8});
  tl.add({0.4, 0.6});
  tl.add({0.6, 0.4});
  // Sample i closes window i + 1.
  EXPECT_DOUBLE_EQ(tl.time_of(0), kUtilSampleWindowSec);
  EXPECT_DOUBLE_EQ(tl.time_of(2), 3 * kUtilSampleWindowSec);
  const auto avg = tl.average_until(tl.time_of(2));
  EXPECT_DOUBLE_EQ(avg.cpu, 0.4);
  EXPECT_DOUBLE_EQ(avg.net, 0.6);
  EXPECT_EQ(tl.values().size(), 3u);
}

TEST(UtilizationTimeline, AverageUntilExcludesTail) {
  UtilizationTimeline tl;
  tl.add({1.0, 1.0});
  tl.add({1.0, 1.0});
  tl.add({0.1, 0.1});  // the low-load tail
  const auto head = tl.average_until(120.0);
  EXPECT_DOUBLE_EQ(head.cpu, 1.0);
  EXPECT_DOUBLE_EQ(head.net, 1.0);
  // A horizon before every sample yields the empty average.
  EXPECT_DOUBLE_EQ(tl.average_until(30.0).cpu, 0.0);
}

TEST(UtilizationTimeline, TsvDownsamplesToRowBudget) {
  UtilizationTimeline tl;
  for (int i = 0; i < 100; ++i) tl.add({0.5, 0.5});
  const std::string full = tl.tsv(200);
  EXPECT_EQ(count_rows(full), 100u);
  const std::string sampled = tl.tsv(10);
  const std::size_t rows = count_rows(sampled);
  EXPECT_LE(rows, 10u);
  EXPECT_GE(rows, 5u);  // stride keeps coverage of the whole span
  EXPECT_TRUE(tl.tsv(0).empty());
  // Rows are tab-separated time/cpu/net triples.
  std::istringstream first_row(sampled.substr(0, sampled.find('\n')));
  double t = 0.0, cpu = 0.0, net = 0.0;
  first_row >> t >> cpu >> net;
  EXPECT_DOUBLE_EQ(t, 60.0);
  EXPECT_DOUBLE_EQ(cpu, 0.5);
  EXPECT_DOUBLE_EQ(net, 0.5);
}

TEST(RunSummary, EmptyAggregates) {
  RunSummary s;
  EXPECT_DOUBLE_EQ(s.mean_jct(), 0.0);
  EXPECT_DOUBLE_EQ(s.max_finish(), 0.0);
}

TEST(RunSummary, MeanJctAveragesPerJobLatency) {
  RunSummary s;
  s.jobs.push_back({0, 0.0, 100.0});
  s.jobs.push_back({1, 50.0, 250.0});
  s.jobs.push_back({2, 100.0, 400.0});
  EXPECT_DOUBLE_EQ(s.jobs[1].jct(), 200.0);
  EXPECT_DOUBLE_EQ(s.mean_jct(), (100.0 + 200.0 + 300.0) / 3.0);
  EXPECT_DOUBLE_EQ(s.max_finish(), 400.0);
}

TEST(RunSummary, MaxFinishIgnoresSubmitOrder) {
  RunSummary s;
  s.jobs.push_back({0, 10.0, 500.0});
  s.jobs.push_back({1, 0.0, 300.0});
  EXPECT_DOUBLE_EQ(s.max_finish(), 500.0);
}

}  // namespace
}  // namespace harmony::exp
