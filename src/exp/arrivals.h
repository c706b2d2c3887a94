// Job arrival processes. Each is defined once, as an unbounded stream: the
// online service mode (src/svc) feeds one into the scheduler for as long as
// it runs, and the finite vectors of a workload replay (the §V-D sensitivity
// study) are prefixes of the same streams.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"

namespace harmony::exp {

// All jobs at t = 0 (the main §V-C experiment).
std::vector<double> batch_arrivals(std::size_t n);

// The first n arrivals of PoissonArrivalStream(mean, seed); a mean <= 0 gives
// batch_arrivals(n).
std::vector<double> poisson_arrivals(std::size_t n, double mean_interarrival_sec,
                                     std::uint64_t seed);

// The first n arrivals of TraceArrivalStream(mean, seed); a mean <= 0 gives
// batch_arrivals(n).
std::vector<double> trace_arrivals(std::size_t n, double mean_interarrival_sec,
                                   std::uint64_t seed);

// ---------------------------------------------------------------------------
// Streams: the service mode's arrival processes, and the source of the
// vectors above.
//
// An ArrivalStream yields an unbounded, non-decreasing sequence of absolute
// arrival times. Streams are deterministic in their seed: the k-th value a
// stream emits depends only on (seed, k), never on how the caller interleaves
// the calls with other work — the service's open-loop driver relies on this
// for bit-reproducible runs.

class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;
  // Absolute time of the next arrival, in seconds; non-decreasing across
  // calls. The first arrival is at t = 0.
  virtual double next() = 0;
};

// Memoryless open-loop arrivals: exponential inter-arrival times with the
// given mean. Throws std::invalid_argument unless the mean is positive.
class PoissonArrivalStream final : public ArrivalStream {
 public:
  PoissonArrivalStream(double mean_interarrival_sec, std::uint64_t seed);

  double next() override;

 private:
  double mean_;
  Rng rng_;
  double t_ = 0.0;
};

// Google-cluster-trace-shaped arrivals: bursts of geometrically many jobs
// (mean 4) landing within a few seconds, separated by heavy-tailed (Pareto)
// gaps scaled to preserve the requested mean inter-arrival time — "more
// diverse pattern of arrivals and job arrival spikes" than Poisson. Because
// bursts overlap when a Pareto gap is shorter than the burst spread, emission
// merges a lookahead buffer: a buffered arrival is only released once every
// still-ungenerated burst is guaranteed to start after it, so a mean below
// 1e-9 s, which would buffer bursts without bound, is read as 1e-9 s. Throws
// std::invalid_argument unless the mean is positive.
class TraceArrivalStream final : public ArrivalStream {
 public:
  TraceArrivalStream(double mean_interarrival_sec, std::uint64_t seed);

  double next() override;

 private:
  void generate_burst();

  Rng rng_;
  double pareto_xm_;
  double next_base_ = 0.0;  // start time of the next ungenerated burst
  // Min-heap of generated-but-unreleased arrival times.
  std::priority_queue<double, std::vector<double>, std::greater<>> buffer_;
  bool emitted_any_ = false;
  double t0_ = 0.0;  // first raw arrival; subtracted so emission starts at 0
};

// First `n` arrivals of a stream, materialized.
std::vector<double> take(ArrivalStream& stream, std::size_t n);

// Factory for the open-loop process shapes the CLI exposes: "poisson" or
// "trace" with the given positive mean inter-arrival time. Throws
// std::invalid_argument on any other kind (batch arrivals are the finite
// batch_arrivals() only) or mean.
std::unique_ptr<ArrivalStream> make_arrival_stream(const std::string& kind,
                                                   double mean_interarrival_sec,
                                                   std::uint64_t seed);

}  // namespace harmony::exp
