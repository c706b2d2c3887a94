// Job arrival processes: finite vectors for the §V-D sensitivity study, and
// unbounded streams for the online service mode (src/svc), which feeds an
// open-loop arrival process into the scheduler for as long as the service
// runs.
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

// Poisson process: exponential inter-arrival times with the given mean (sec).
std::vector<double> poisson_arrivals(std::size_t n, double mean_interarrival_sec,
                                     std::uint64_t seed);

// Google-cluster-trace-shaped arrivals: bursts of geometrically-many jobs
// separated by heavy-tailed (Pareto) gaps — "more diverse pattern of arrivals
// and job arrival spikes" than Poisson.
std::vector<double> trace_arrivals(std::size_t n, double mean_interarrival_sec,
                                   std::uint64_t seed);

// ---------------------------------------------------------------------------
// Streaming generators (online service mode).
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

// Memoryless open-loop arrivals. Emits exactly the sequence of
// poisson_arrivals(n, mean, seed) for every prefix n.
class PoissonArrivalStream final : public ArrivalStream {
 public:
  PoissonArrivalStream(double mean_interarrival_sec, std::uint64_t seed)
      : mean_(mean_interarrival_sec), rng_(seed) {}

  double next() override;

 private:
  double mean_;
  Rng rng_;
  double t_ = 0.0;
};

// Streaming variant of trace_arrivals: geometric bursts (mean ~4 jobs inside
// a few seconds) separated by Pareto gaps scaled to preserve the requested
// mean inter-arrival time. Because bursts overlap when a Pareto gap is
// shorter than the burst spread, emission merges a lookahead buffer: a
// buffered arrival is only released once every still-ungenerated burst is
// guaranteed to start after it. Draw-for-draw this differs from the finite
// trace_arrivals() at its truncation boundary (the vector version stops
// mid-burst at n), so the two are pinned by separate determinism tests.
class TraceArrivalStream final : public ArrivalStream {
 public:
  TraceArrivalStream(double mean_interarrival_sec, std::uint64_t seed);

  double next() override;

 private:
  void generate_burst();

  Rng rng_;
  double burst_mean_;
  double pareto_alpha_;
  double pareto_xm_;
  double next_base_ = 0.0;  // start time of the next ungenerated burst
  // Min-heap of generated-but-unreleased arrival times.
  std::priority_queue<double, std::vector<double>, std::greater<>> buffer_;
  bool emitted_any_ = false;
  double t0_ = 0.0;  // first raw arrival; subtracted so emission starts at 0
};

// First `n` arrivals of a stream, materialized (test/driver convenience).
std::vector<double> take(ArrivalStream& stream, std::size_t n);

// Factory for the open-loop process shapes the CLI exposes: "poisson" or
// "trace" with the given mean inter-arrival time. Throws std::invalid_argument
// on any other kind (batch arrivals are the finite batch_arrivals() only).
std::unique_ptr<ArrivalStream> make_arrival_stream(const std::string& kind,
                                                   double mean_interarrival_sec,
                                                   std::uint64_t seed);

}  // namespace harmony::exp
