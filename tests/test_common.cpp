#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace harmony {
namespace {

TEST(WindowedAverage, SlidesWindow) {
  WindowedAverage<3> wa;
  EXPECT_EQ(wa.mean(), 0.0);
  wa.add(1.0);
  wa.add(2.0);
  wa.add(3.0);
  EXPECT_DOUBLE_EQ(wa.mean(), 2.0);
  wa.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(wa.mean(), 5.0);
  EXPECT_EQ(wa.size(), 3u);
  wa.add(20.0);  // evicts 2.0
  wa.add(30.0);  // evicts 3.0
  wa.add(40.0);  // evicts 10.0: the ring has wrapped
  EXPECT_DOUBLE_EQ(wa.mean(), 30.0);
  EXPECT_EQ(wa.size(), 3u);
}

TEST(RelativeError, Basics) {
  EXPECT_DOUBLE_EQ(relative_error(105.0, 100.0), 0.05);
  EXPECT_DOUBLE_EQ(relative_error(95.0, 100.0), 0.05);
  EXPECT_DOUBLE_EQ(relative_error(1.0, 0.0, 1.0), 1.0);  // eps guards /0
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependence) {
  Rng a(42);
  Rng child = a.fork();
  // Child stream differs from the parent's continued stream.
  EXPECT_NE(child.next_u64(), a.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, LognormalNoiseMeanOne) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal_noise(0.1);
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(Rng, LognormalZeroCvIsExact) {
  Rng rng(11);
  EXPECT_DOUBLE_EQ(rng.lognormal_noise(0.0), 1.0);
}

TEST(Rng, ZipfSkewsLow) {
  Rng rng(13);
  std::size_t low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i)
    if (rng.zipf(1000, 1.2) < 10) ++low;
  // Zipf mass concentrates at small indices.
  EXPECT_GT(low, n / 4);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, MatchesClosedFormOnLinearRamp) {
  SampleSet s;
  for (int i = 0; i <= 100; ++i) s.add(static_cast<double>(i));
  const double q = GetParam();
  EXPECT_NEAR(s.quantile(q), q * 100.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0));

// The quantile selects two order statistics instead of sorting; it must
// return exactly what interpolating over a sorted copy returns.
double sorted_reference_quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

TEST(SampleSet, QuantileMatchesSortReference) {
  Rng rng(29);
  std::vector<std::pair<std::string, std::vector<double>>> sets;
  for (const std::size_t n : {1u, 2u, 3u, 1000u, 200000u}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(rng.exponential(7000.0));
    sets.emplace_back("exponential n=" + std::to_string(n), std::move(v));
  }
  sets.emplace_back("all equal", std::vector<double>(1000, 3.25));
  {
    // Heavy ties: a few distinct values, most of them zero, as in the
    // service's queue delays.
    std::vector<double> v;
    for (int i = 0; i < 5000; ++i)
      v.push_back(rng.bernoulli(0.9) ? 0.0 : static_cast<double>(rng.uniform_int(1, 4)));
    sets.emplace_back("heavy ties", std::move(v));
  }
  {
    std::vector<double> v;
    for (int i = 0; i < 4001; ++i) v.push_back(rng.normal(-50.0, 30.0));
    sets.emplace_back("negative", std::move(v));
  }

  std::vector<double> qs = {0.0, 1e-9, 0.01, 0.5, 0.99, 1.0};
  for (int i = 0; i < 50; ++i) qs.push_back(rng.uniform(0.0, 1.0));

  for (const auto& [name, values] : sets) {
    SampleSet s;
    for (double x : values) s.add(x);
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double q : qs) {
      EXPECT_EQ(s.quantile(q), sorted_reference_quantile(sorted, q)) << name << " q=" << q;
    }
    EXPECT_EQ(s.samples(), values) << name << ": quantile must not reorder the samples";
  }
}

TEST(SampleSet, CdfMonotone) {
  SampleSet s;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) s.add(rng.normal(0, 1));
  double prev = 0.0;
  for (double x = -3.0; x <= 3.0; x += 0.25) {
    const double f = s.cdf_at(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(s.cdf_at(1e9), 1.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);  // clamps into first bin
  h.add(0.5);
  h.add(9.99);
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bins()[0], 2u);
  EXPECT_EQ(h.bins()[4], 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

// Samples at or above hi land in the last bin: hi itself, the double just
// below it, and anything larger.
TEST(Histogram, TopEdgeClampsIntoLastBin) {
  for (const double hi : {10.0, 0.3, 1000.0}) {
    Histogram h(0.0, hi, 7);
    h.add(hi);
    h.add(std::nextafter(hi, 0.0));
    h.add(2.0 * hi);
    h.add(std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.bins().back(), 4u) << "hi = " << hi;
    EXPECT_EQ(h.total(), 4u) << "hi = " << hi;
    h.add(0.0);
    EXPECT_EQ(h.bins().front(), 1u) << "hi = " << hi;
  }
}

// RunningStats keeps no samples, yet reports what a SampleSet over the same
// stream reports, bit for bit: its mean is the same left fold. The stream
// spans twelve orders of magnitude, so a different summation order would
// round differently.
TEST(RunningStats, MatchesSampleSetBitForBit) {
  RunningStats running;
  SampleSet samples;
  EXPECT_EQ(running.mean(), samples.mean());
  EXPECT_EQ(running.min(), samples.min());
  EXPECT_EQ(running.max(), samples.max());
  Rng rng(43);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform(0.0, 1.0) * std::pow(10.0, rng.uniform_int(-6, 6));
    running.add(x);
    samples.add(x);
  }
  EXPECT_EQ(running.size(), samples.size());
  EXPECT_EQ(running.mean(), samples.mean());
  EXPECT_EQ(running.min(), samples.min());
  EXPECT_EQ(running.max(), samples.max());
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_numeric_row("beta", {2.5, 3.0});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.500"), std::string::npos);
}

}  // namespace
}  // namespace harmony
