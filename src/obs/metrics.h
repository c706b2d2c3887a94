// Metrics registry (the observability layer's aggregate half).
//
// Named counters, gauges and histograms for run-level telemetry: scheduler
// invocations, regroup events, OOM events, queue depths, event-loop
// throughput. Registration hands back a stable reference that call sites
// cache (typically in a function-local static), so steady-state updates are
// one relaxed atomic op with no lookup. Snapshots serialize to JSON for the
// --metrics flag and for attaching to bench reports.
//
// Metrics are always on: the per-update cost is a single uncontended atomic
// add at decision-level granularity (per schedule call, per regroup, per
// subtask in the threaded runtime), never inside the simulator's event loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"
#include "common/sync.h"

namespace harmony::obs {

// Point-in-time copy of every registered metric, cheap to diff. The
// time-series engine (obs/timeseries.h) exports its cumulative view in this
// form and turns consecutive samples into per-window deltas.
struct MetricsSnapshot {
  struct HistogramState {
    double lo = 0.0;  // first bin's lower edge
    double hi = 0.0;  // last bin's upper edge
    std::vector<std::uint64_t> bins;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramState> histograms;
};

// Quantile over a (possibly delta) histogram state, q in [0, 1]: linear
// interpolation within the covering bin, clamped to the envelope of occupied
// bins (raw min/max are not recoverable from bin deltas). 0 when empty.
double histogram_state_percentile(const MetricsSnapshot::HistogramState& h, double q);

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-shape histogram (equal-width bins over [lo, hi], out-of-range samples
// clamp into the edge bins) plus running count/sum/min/max.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins);

  void observe(double x);

  std::size_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  Histogram histogram() const;  // copy of the current bin state
  // Quantile estimate, q in [0, 1], linearly interpolated within bins (each
  // bin's mass is assumed uniform over its width). The estimate is clamped to
  // the observed [min, max] envelope, which also makes the edge bins exact
  // when out-of-range samples were clamped into them. Returns 0 when empty.
  double percentile(double q) const;
  // Bins + count/sum under one lock acquisition, for consistent snapshots.
  MetricsSnapshot::HistogramState state() const;
  void reset();

 private:
  double lo_;
  double hi_;
  std::size_t bins_;
  mutable common::Mutex mu_;
  Histogram hist_ GUARDED_BY(mu_);
  RunningStats moments_ GUARDED_BY(mu_);
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& instance();

  // Returns the named metric, creating it on first use. References stay
  // valid for the registry's lifetime — cache them at hot call sites. A
  // histogram's shape is fixed by whoever registers it first.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HistogramMetric& histogram(std::string_view name, double lo, double hi, std::size_t bins);

  // Zeroes every registered metric (registrations survive).
  void reset();

  // Consistent-ish point-in-time copy of every metric (each metric is read
  // atomically; the set is read under the registry lock).
  MetricsSnapshot snapshot() const;

  // Number of registered series across all kinds — a cheap staleness check
  // for cached series views (registrations are never removed).
  std::size_t series_count() const;

  // Sorted (name, metric) views over the registered series. The metric
  // pointers stay valid for the registry's lifetime; the *set* is a snapshot
  // — recheck series_count() to detect registrations made since. These are
  // what the time-series engine resolves its allow-list against once, so the
  // per-window sampling path reads metrics directly instead of copying the
  // whole registry.
  std::vector<std::pair<std::string, const Counter*>> counter_series() const;
  std::vector<std::pair<std::string, const Gauge*>> gauge_series() const;
  std::vector<std::pair<std::string, const HistogramMetric*>> histogram_series() const;

  // {"counters": {...}, "gauges": {...}, "histograms": {...}}, keys sorted.
  std::string snapshot_json() const;
  bool write_json_file(const std::string& path) const;

 private:
  mutable common::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace harmony::obs
