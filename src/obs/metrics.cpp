#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/logging.h"

namespace harmony::obs {

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins), hist_(lo, hi, bins) {}

void HistogramMetric::observe(double x) {
  common::MutexLock lock(mu_);
  hist_.add(x);
  moments_.add(x);
}

std::size_t HistogramMetric::count() const {
  common::MutexLock lock(mu_);
  return moments_.size();
}

double HistogramMetric::sum() const {
  common::MutexLock lock(mu_);
  return moments_.sum();
}

double HistogramMetric::min() const {
  common::MutexLock lock(mu_);
  return moments_.min();
}

double HistogramMetric::max() const {
  common::MutexLock lock(mu_);
  return moments_.max();
}

Histogram HistogramMetric::histogram() const {
  common::MutexLock lock(mu_);
  return hist_;
}

double HistogramMetric::percentile(double q) const {
  common::MutexLock lock(mu_);
  if (moments_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [0, count]; walk the bins until the cumulative mass covers it,
  // then interpolate linearly inside the covering bin.
  const double target = q * static_cast<double>(moments_.size());
  double cumulative = 0.0;
  const auto& counts = hist_.bins();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(counts[i]);
    if (c > 0.0 && cumulative + c >= target) {
      const double frac = std::clamp((target - cumulative) / c, 0.0, 1.0);
      const double lo = hist_.bin_lo(i);
      const double hi = hist_.bin_hi(i);
      return std::clamp(lo + frac * (hi - lo), moments_.min(), moments_.max());
    }
    cumulative += c;
  }
  return moments_.max();
}

MetricsSnapshot::HistogramState HistogramMetric::state() const {
  common::MutexLock lock(mu_);
  MetricsSnapshot::HistogramState s;
  s.lo = lo_;
  s.hi = hi_;
  s.bins = hist_.bins();
  s.count = moments_.size();
  s.sum = moments_.sum();
  return s;
}

void HistogramMetric::reset() {
  common::MutexLock lock(mu_);
  hist_ = Histogram(lo_, hi_, bins_);
  moments_ = RunningStats{};
}

MetricsRegistry& MetricsRegistry::instance() {
  // Leaky singleton for the same reason as the tracer: instrumented worker
  // threads may outlive static destruction order.
  static MetricsRegistry* registry = new MetricsRegistry();  // lint: allow-naked-new
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  common::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  common::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                            std::size_t bins) {
  common::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name), std::make_unique<HistogramMetric>(lo, hi, bins))
             .first;
  return *it->second;
}

void MetricsRegistry::reset() {
  common::MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  common::MutexLock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_) snap.histograms.emplace(name, h->state());
  return snap;
}

std::size_t MetricsRegistry::series_count() const {
  common::MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<std::pair<std::string, const Counter*>> MetricsRegistry::counter_series()
    const {
  common::MutexLock lock(mu_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.get());
  return out;
}

std::vector<std::pair<std::string, const Gauge*>> MetricsRegistry::gauge_series() const {
  common::MutexLock lock(mu_);
  std::vector<std::pair<std::string, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g.get());
  return out;
}

std::vector<std::pair<std::string, const HistogramMetric*>>
MetricsRegistry::histogram_series() const {
  common::MutexLock lock(mu_);
  std::vector<std::pair<std::string, const HistogramMetric*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

double histogram_state_percentile(const MetricsSnapshot::HistogramState& h, double q) {
  if (h.count == 0 || h.bins.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double width = (h.hi - h.lo) / static_cast<double>(h.bins.size());
  // Envelope of occupied bins: the tightest bound recoverable from deltas
  // (raw min/max don't survive subtraction).
  std::size_t first = 0;
  while (first < h.bins.size() && h.bins[first] == 0) ++first;
  std::size_t last = h.bins.size();
  while (last > first && h.bins[last - 1] == 0) --last;
  if (first >= last) return 0.0;
  const double env_lo = h.lo + static_cast<double>(first) * width;
  const double env_hi = h.lo + static_cast<double>(last) * width;
  const double target = q * static_cast<double>(h.count);
  double cumulative = 0.0;
  for (std::size_t i = first; i < last; ++i) {
    const auto c = static_cast<double>(h.bins[i]);
    if (c > 0.0 && cumulative + c >= target) {
      const double frac = std::clamp((target - cumulative) / c, 0.0, 1.0);
      const double bin_lo = h.lo + static_cast<double>(i) * width;
      return std::clamp(bin_lo + frac * width, env_lo, env_hi);
    }
    cumulative += c;
  }
  return env_hi;
}

namespace {

// JSON-safe number: finite doubles printed with enough digits to round-trip.
std::string json_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::snapshot_json() const {
  common::MutexLock lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, c->value());
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + json_double(g->value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const Histogram hist = h->histogram();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"count\": " + std::to_string(h->count()) +
           ", \"sum\": " + json_double(h->sum()) + ", \"min\": " + json_double(h->min()) +
           ", \"max\": " + json_double(h->max()) + ", \"p50\": " +
           json_double(h->percentile(0.50)) + ", \"p95\": " +
           json_double(h->percentile(0.95)) + ", \"p99\": " +
           json_double(h->percentile(0.99)) + ", \"bin_lo\": " +
           json_double(hist.bin_lo(0)) + ", \"bin_hi\": " +
           json_double(hist.bin_hi(hist.bins().size() - 1)) + ", \"bins\": [";
    for (std::size_t i = 0; i < hist.bins().size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(hist.bins()[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    HLOG(kError) << "metrics: cannot open " << path << " for writing";
    return false;
  }
  out << snapshot_json();
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace harmony::obs
