#include "exp/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace harmony::exp {

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
  Rng rng(seed);
  std::vector<double> arrivals;
  arrivals.reserve(n);

  // Bursts: geometric size (mean ~4), jobs inside a burst land within a few
  // seconds; gaps between bursts are Pareto (alpha = 1.5) scaled to preserve
  // the requested mean inter-arrival time overall.
  const double burst_mean = 4.0;
  const double gap_mean = mean_interarrival_sec * burst_mean;
  const double pareto_alpha = 1.5;
  const double pareto_xm = gap_mean * (pareto_alpha - 1.0) / pareto_alpha;

  double t = 0.0;
  while (arrivals.size() < n) {
    std::size_t burst = 1;
    while (rng.bernoulli(1.0 - 1.0 / burst_mean)) ++burst;
    for (std::size_t k = 0; k < burst && arrivals.size() < n; ++k) {
      arrivals.push_back(t + rng.uniform(0.0, 5.0));
    }
    const double u = rng.uniform(1e-9, 1.0);
    t += pareto_xm / std::pow(u, 1.0 / pareto_alpha);
  }
  std::sort(arrivals.begin(), arrivals.end());
  // Normalize so the first job arrives at t = 0.
  const double t0 = arrivals.front();
  for (double& a : arrivals) a -= t0;
  return arrivals;
}

// ---------------------------------------------------------------------------
// Streams.

double PoissonArrivalStream::next() {
  if (mean_ <= 0.0) return 0.0;
  const double t = t_;
  t_ += rng_.exponential(mean_);
  return t;
}

TraceArrivalStream::TraceArrivalStream(double mean_interarrival_sec, std::uint64_t seed)
    : rng_(seed),
      burst_mean_(4.0),
      pareto_alpha_(1.5),
      pareto_xm_(std::max(mean_interarrival_sec, 1e-9) * burst_mean_ *
                 (pareto_alpha_ - 1.0) / pareto_alpha_) {}

void TraceArrivalStream::generate_burst() {
  // Same per-burst draw order as trace_arrivals: burst size (bernoulli
  // chain), one uniform offset per job, then the Pareto gap to the next base.
  std::size_t burst = 1;
  while (rng_.bernoulli(1.0 - 1.0 / burst_mean_)) ++burst;
  for (std::size_t k = 0; k < burst; ++k) {
    buffer_.push(next_base_ + rng_.uniform(0.0, 5.0));
  }
  const double u = rng_.uniform(1e-9, 1.0);
  next_base_ += pareto_xm_ / std::pow(u, 1.0 / pareto_alpha_);
}

double TraceArrivalStream::next() {
  // Arrivals of a burst based at b lie in [b, b + 5], and bases only grow, so
  // the smallest buffered time is final once it is <= the next ungenerated
  // base. Generating whole bursts (never truncating one) keeps the emitted
  // sequence independent of how many arrivals the caller consumes.
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
  if (mean_interarrival_sec <= 0.0)
    throw std::invalid_argument("arrival stream '" + kind +
                                "' needs a positive mean inter-arrival time");
  if (kind == "poisson")
    return std::make_unique<PoissonArrivalStream>(mean_interarrival_sec, seed);
  if (kind == "trace")
    return std::make_unique<TraceArrivalStream>(mean_interarrival_sec, seed);
  throw std::invalid_argument("unknown arrival stream kind '" + kind + "'");
}

}  // namespace harmony::exp
