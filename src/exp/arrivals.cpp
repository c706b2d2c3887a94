#include "exp/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace harmony::exp {

namespace {

// The trace burst model: geometric burst sizes with this mean, each job of a
// burst within kBurstSpreadSec of the burst's base, Pareto(kParetoAlpha) gaps
// between bases.
constexpr double kBurstMean = 4.0;
constexpr double kBurstSpreadSec = 5.0;
constexpr double kParetoAlpha = 1.5;
// The trace stream reads a smaller mean as this one. Bases advance by about
// kBurstMean × mean per burst while each burst spreads over kBurstSpreadSec,
// so the lookahead grows as the mean shrinks: a process that draws 80
// arrivals peaks at 11 MB at this floor and at 259 MB at 1e-12 s.
constexpr double kMinTraceMeanSec = 1e-9;

double positive_mean(double mean_interarrival_sec) {
  if (!(mean_interarrival_sec > 0.0))
    throw std::invalid_argument("an arrival stream needs a positive mean inter-arrival time");
  return mean_interarrival_sec;
}

}  // namespace

std::vector<double> batch_arrivals(std::size_t n) { return std::vector<double>(n, 0.0); }

std::vector<double> poisson_arrivals(std::size_t n, double mean_interarrival_sec,
                                     std::uint64_t seed) {
  if (mean_interarrival_sec <= 0.0) return batch_arrivals(n);
  PoissonArrivalStream stream(mean_interarrival_sec, seed);
  return take(stream, n);
}

std::vector<double> trace_arrivals(std::size_t n, double mean_interarrival_sec,
                                   std::uint64_t seed) {
  if (mean_interarrival_sec <= 0.0) return batch_arrivals(n);
  TraceArrivalStream stream(mean_interarrival_sec, seed);
  return take(stream, n);
}

// ---------------------------------------------------------------------------
// Streams.

PoissonArrivalStream::PoissonArrivalStream(double mean_interarrival_sec, std::uint64_t seed)
    : mean_(positive_mean(mean_interarrival_sec)), rng_(seed) {}

double PoissonArrivalStream::next() {
  const double t = t_;
  t_ += rng_.exponential(mean_);
  return t;
}

// The mean gap between burst bases is kBurstMean times the mean
// inter-arrival time, and a Pareto(alpha) gap with scale xm has mean
// xm * alpha / (alpha - 1).
TraceArrivalStream::TraceArrivalStream(double mean_interarrival_sec, std::uint64_t seed)
    : rng_(seed),
      pareto_xm_(std::max(positive_mean(mean_interarrival_sec), kMinTraceMeanSec) * kBurstMean *
                 (kParetoAlpha - 1.0) / kParetoAlpha) {}

void TraceArrivalStream::generate_burst() {
  // Burst size (a bernoulli chain), one uniform offset per job, then the
  // Pareto gap to the next base.
  std::size_t burst = 1;
  while (rng_.bernoulli(1.0 - 1.0 / kBurstMean)) ++burst;
  for (std::size_t k = 0; k < burst; ++k) {
    buffer_.push(next_base_ + rng_.uniform(0.0, kBurstSpreadSec));
  }
  const double u = rng_.uniform(1e-9, 1.0);
  next_base_ += pareto_xm_ / std::pow(u, 1.0 / kParetoAlpha);
}

double TraceArrivalStream::next() {
  // Arrivals of a burst based at b lie in [b, b + kBurstSpreadSec], and
  // bases only grow, so the smallest buffered time is final once it is <=
  // the next ungenerated base. Generating whole bursts (never truncating one)
  // keeps the emitted sequence independent of how many arrivals the caller
  // consumes.
  while (buffer_.empty() || buffer_.top() > next_base_) generate_burst();
  const double raw = buffer_.top();
  buffer_.pop();
  if (!emitted_any_) {
    emitted_any_ = true;
    t0_ = raw;  // normalize: the first arrival lands at t = 0
  }
  return raw - t0_;
}

std::vector<double> take(ArrivalStream& stream, std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(stream.next());
  return out;
}

std::unique_ptr<ArrivalStream> make_arrival_stream(const std::string& kind,
                                                   double mean_interarrival_sec,
                                                   std::uint64_t seed) {
  if (kind == "poisson")
    return std::make_unique<PoissonArrivalStream>(mean_interarrival_sec, seed);
  if (kind == "trace")
    return std::make_unique<TraceArrivalStream>(mean_interarrival_sec, seed);
  throw std::invalid_argument("unknown arrival stream kind '" + kind + "'");
}

}  // namespace harmony::exp
