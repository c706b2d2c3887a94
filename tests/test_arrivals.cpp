// Arrival processes (src/exp/arrivals): finite vectors and the unbounded
// streams that feed the online service mode. Pins seeded determinism, the
// vector/stream prefix equivalence of both processes, and the empirical rates
// of both stochastic generators.
#include "exp/arrivals.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace harmony::exp {
namespace {

TEST(BatchArrivals, AllAtTimeZero) {
  const auto times = batch_arrivals(5);
  ASSERT_EQ(times.size(), 5u);
  for (double t : times) EXPECT_EQ(t, 0.0);
}

TEST(PoissonArrivals, StreamMatchesVectorForEveryPrefix) {
  // The stream is documented bit-compatible with poisson_arrivals for every
  // prefix length — the service driver and the finite experiments must see
  // the same process.
  const auto full = poisson_arrivals(200, 30.0, 42);
  for (std::size_t n : {1u, 7u, 100u, 200u}) {
    PoissonArrivalStream stream(30.0, 42);
    const auto prefix = take(stream, n);
    ASSERT_EQ(prefix.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(prefix[i], full[i]) << "i=" << i;
  }
}

TEST(PoissonArrivals, DeterministicInSeedAndDistinctAcrossSeeds) {
  PoissonArrivalStream a(10.0, 7), b(10.0, 7), c(10.0, 8);
  const auto sa = take(a, 500);
  const auto sb = take(b, 500);
  const auto sc = take(c, 500);
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(PoissonArrivals, StartsAtZeroAndNonDecreasing) {
  PoissonArrivalStream stream(5.0, 3);
  const auto times = take(stream, 1000);
  EXPECT_EQ(times.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(PoissonArrivals, EmpiricalMeanInterarrivalNearConfigured) {
  // 20k exponential gaps: the sample mean concentrates well within 5%.
  const double mean = 12.0;
  PoissonArrivalStream stream(mean, 99);
  const std::size_t n = 20000;
  const auto times = take(stream, n);
  const double empirical = times.back() / static_cast<double>(n - 1);
  EXPECT_NEAR(empirical, mean, 0.05 * mean);
}

TEST(TraceArrivals, VectorDeterministicAndBursty) {
  const auto a = trace_arrivals(400, 60.0, 5);
  const auto b = trace_arrivals(400, 60.0, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Burstiness: a meaningful share of gaps is far below the mean while the
  // overall span still covers it — Poisson would not pack 4-job spikes.
  std::size_t tight_gaps = 0;
  for (std::size_t i = 1; i < a.size(); ++i)
    if (a[i] - a[i - 1] < 0.1 * 60.0) ++tight_gaps;
  EXPECT_GT(tight_gaps, a.size() / 4);
}

TEST(TraceArrivals, StreamMatchesVectorForEveryPrefix) {
  // trace_arrivals(n) is the first n values of the stream for every n, so a
  // replay of n jobs sees the arrivals the service's stream starts with. A
  // vector that stopped mid-burst at n would differ from the stream in its
  // last few values.
  for (std::uint64_t seed : {1u, 3u}) {
    for (std::size_t n : {1u, 7u, 80u, 400u, 4000u}) {
      const auto vec = trace_arrivals(n, 120.0, seed);
      TraceArrivalStream stream(120.0, seed);
      const auto prefix = take(stream, n);
      ASSERT_EQ(vec.size(), n);
      const auto first_diff =
          static_cast<std::size_t>(std::mismatch(vec.begin(), vec.end(), prefix.begin()).first -
                                   vec.begin());
      EXPECT_EQ(first_diff, n) << "seed " << seed << ", n " << n << ": value " << first_diff
                               << " differs";
    }
  }
}

TEST(TraceArrivals, StreamDeterministicMonotonicFromZero) {
  TraceArrivalStream s1(45.0, 11), s2(45.0, 11);
  const auto a = take(s1, 2000);
  const auto b = take(s2, 2000);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(TraceArrivals, StreamEmpiricalMeanInterarrivalNearConfigured) {
  // Pareto gaps are heavy-tailed, so the sample mean converges slowly; 20k
  // arrivals with a generous 25% band keeps this robust yet meaningful.
  const double mean = 20.0;
  TraceArrivalStream stream(mean, 123);
  const std::size_t n = 20000;
  const auto times = take(stream, n);
  const double empirical = times.back() / static_cast<double>(n - 1);
  EXPECT_NEAR(empirical, mean, 0.25 * mean);
}

TEST(TraceArrivals, StreamInterleavingInvariant) {
  // The k-th emission depends only on (seed, k): draining in one go or in
  // many small takes yields the same sequence.
  TraceArrivalStream whole(30.0, 77);
  const auto all = take(whole, 300);
  TraceArrivalStream pieces(30.0, 77);
  std::vector<double> stitched;
  while (stitched.size() < 300) {
    const auto chunk = take(pieces, 30);
    stitched.insert(stitched.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(all, stitched);
}

TEST(MakeArrivalStream, FactoryKindsAndErrors) {
  auto poisson = make_arrival_stream("poisson", 15.0, 21);
  PoissonArrivalStream reference(15.0, 21);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(poisson->next(), reference.next());
  auto trace = make_arrival_stream("trace", 15.0, 21);
  TraceArrivalStream trace_reference(15.0, 21);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(trace->next(), trace_reference.next());
  EXPECT_THROW(make_arrival_stream("uniform", 1.0, 1), std::invalid_argument);
  // Batch arrivals are not an open-loop stream.
  EXPECT_THROW(make_arrival_stream("batch", 1.0, 1), std::invalid_argument);
}

TEST(ArrivalStreams, NonPositiveMeanThrows) {
  // Only the vector wrappers read a mean <= 0 as batch arrivals.
  EXPECT_THROW(PoissonArrivalStream(0.0, 1), std::invalid_argument);
  EXPECT_THROW(TraceArrivalStream(-5.0, 1), std::invalid_argument);
  EXPECT_THROW(make_arrival_stream("trace", 0.0, 1), std::invalid_argument);
  EXPECT_EQ(trace_arrivals(3, 0.0, 1), batch_arrivals(3));
}

}  // namespace
}  // namespace harmony::exp
