#include "common/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>

namespace harmony {

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  return samples_.empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  return samples_.empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::quantile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) return 0.0;
  std::vector<double> work = samples_;
  return select_quantile(work, q);
}

double select_quantile(std::span<double> samples, double q) {
  assert(q >= 0.0 && q <= 1.0);
  if (samples.empty()) return 0.0;
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  // Order statistics lo and hi (hi is lo or lo + 1): after the partial sort
  // everything past lo is >= samples[lo], so the next one up is their minimum.
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples.begin(), nth, samples.end());
  const double at_lo = *nth;
  const double at_hi = hi == lo ? at_lo : *std::min_element(nth + 1, samples.end());
  return at_lo * (1.0 - frac) + at_hi * frac;
}

double SampleSet::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  const auto count = std::count_if(samples_.begin(), samples_.end(),
                                   [x](double s) { return s <= x; });
  return static_cast<double>(count) / static_cast<double>(samples_.size());
}

std::string SampleSet::cdf_table(std::size_t points) const {
  std::ostringstream out;
  if (samples_.empty() || points == 0) return out.str();
  const double lo = min();
  const double hi = max();
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1 ? points - 1 : 1);
    out << x << '\t' << cdf_at(x) << '\n';
  }
  return out.str();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), top_(std::nextafter(hi, lo)), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double clamped = std::clamp(x, lo_, top_);
  const auto idx = static_cast<std::size_t>((clamped - lo_) / (hi_ - lo_) *
                                            static_cast<double>(counts_.size()));
  counts_[std::min(idx, counts_.size() - 1)]++;
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

}  // namespace harmony
