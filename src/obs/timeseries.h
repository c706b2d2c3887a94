// Time-series engine (the observability layer's live half).
//
// Turns cumulative MetricsRegistry state into windowed aggregates: at each
// window close the caller picks (in sim time) the engine reads its selected
// series (metric pointers resolved once against the registry), diffs against
// the values at the previous sample — a counter or histogram that ran
// backwards (a reset() between samples) restarts, contributing its whole
// current value — and returns one TelemetryWindow — counter deltas and rates,
// gauge last-values, per-window histogram count/sum/p50/p99. The engine keeps
// no window: the caller renders each one to a byte-deterministic JSON Lines
// schema ("harmony-telemetry-v1") and keeps or writes the line, and the
// cumulative filtered snapshot exports as Prometheus text exposition.
//
// Determinism contract: the engine is driven by the *sim* clock (the caller
// passes window timestamps), reads only through MetricsRegistry, and filters
// to an explicit series allow-list. Series fed from wall-clock measurements
// or perturbed by pure-observer validators must be excluded by the caller so
// telemetry output stays a function of the seed alone.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace harmony::obs {

struct TimeSeriesConfig {
  // Only series whose name starts with one of these prefixes are sampled.
  // Empty = sample everything.
  std::vector<std::string> include_prefixes;
  // Exact series names dropped even when a prefix matches (wall-fed series).
  std::vector<std::string> exclude;
};

struct TelemetryWindow {
  std::uint64_t index = 0;  // monotone window number
  double start_sec = 0.0;
  double end_sec = 0.0;
  std::map<std::string, std::uint64_t> counter_deltas;
  std::map<std::string, double> gauges;
  struct HistWindow {
    std::uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };
  std::map<std::string, HistWindow> histograms;

  double length_sec() const { return end_sec - start_sec; }
  // Per-second rate for a counter delta; 0 for a zero-length window.
  double rate(const std::string& name) const;
};

class TimeSeriesEngine {
 public:
  explicit TimeSeriesEngine(TimeSeriesConfig config, const MetricsRegistry& registry);

  // Closes the window ending at `now_sec`: reads the selected series, diffs
  // against the previous sample and returns the window.
  TelemetryWindow sample(double now_sec);

  // One JSON object per line, keys sorted, doubles printed with %.17g:
  // {"schema":"harmony-telemetry-v1","window":N,"start":S,"end":E,
  //  "counters":{...deltas...},"rates":{...},"gauges":{...},
  //  "histograms":{name:{count,sum,p50,p99}}}. `extra` (may be empty) is
  // spliced verbatim before the closing brace — the SLO layer appends its
  // alert fragment there.
  static std::string to_jsonl(const TelemetryWindow& w, const std::string& extra);

  // The registry snapshot filtered by this engine's include/exclude rules —
  // the cumulative counterpart of the windows.
  MetricsSnapshot filtered_snapshot() const;

 private:
  // Selected series with their metric pointer (stable for the registry's
  // lifetime) and the cumulative value at the last sample() — the engine's
  // per-window diff state. Resolving once keeps sample() off the
  // copy-the-whole-registry path: a window costs one atomic load per counter
  // and gauge plus one short lock per histogram.
  struct CounterSeries {
    std::string name;
    const Counter* metric;
    std::uint64_t prev = 0;
  };
  struct GaugeSeries {
    std::string name;
    const Gauge* metric;
  };
  struct HistSeries {
    std::string name;
    const HistogramMetric* metric;
    MetricsSnapshot::HistogramState prev;
  };

  bool selected(const std::string& name) const;
  MetricsSnapshot filter(const MetricsSnapshot& snap) const;
  // Re-resolves the selected series from the registry, keeping the diff
  // state of series already tracked (new series start with a zero baseline:
  // mid-window registrations contribute their full current value).
  void refresh_series();

  TimeSeriesConfig config_;
  const MetricsRegistry& registry_;
  std::vector<CounterSeries> counter_series_;
  std::vector<GaugeSeries> gauge_series_;
  std::vector<HistSeries> hist_series_;
  std::size_t resolved_registry_count_ = 0;
  double prev_time_sec_ = 0.0;
  std::uint64_t next_index_ = 0;
};

// Prometheus text exposition (text/plain; version=0.0.4) of a cumulative
// snapshot. Series names are sanitized ('.'/'-' -> '_') and prefixed with
// "harmony_"; counters get a "_total" suffix, histograms emit cumulative
// _bucket{le=...} lines plus _sum and _count. Output is byte-deterministic
// (sorted names, %.17g doubles).
std::string prometheus_text(const MetricsSnapshot& snap);

}  // namespace harmony::obs
