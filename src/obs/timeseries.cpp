#include "obs/timeseries.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

namespace harmony::obs {

namespace {

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

// Append variants for the per-window render path — no temporary strings.
void append_double(std::string& out, double v) {
  char buf[48];
  out.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof(buf), "%.17g", v)));
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  out.append(buf,
             static_cast<std::size_t>(std::snprintf(buf, sizeof(buf), "%" PRIu64, v)));
}

void append_key(std::string& out, const std::string& name, bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += name;
  out += "\":";
}

}  // namespace

double TelemetryWindow::rate(const std::string& name) const {
  const auto it = counter_deltas.find(name);
  if (it == counter_deltas.end()) return 0.0;
  const double len = length_sec();
  if (len <= 0.0) return 0.0;
  return static_cast<double>(it->second) / len;
}

TimeSeriesEngine::TimeSeriesEngine(TimeSeriesConfig config, const MetricsRegistry& registry)
    : config_(std::move(config)), registry_(registry) {
  // Baseline at construction: metrics accumulated by earlier runs in this
  // process (the registry is global) must not leak into window 0.
  refresh_series();
  for (auto& c : counter_series_) c.prev = c.metric->value();
  for (auto& h : hist_series_) h.prev = h.metric->state();
}

void TimeSeriesEngine::refresh_series() {
  resolved_registry_count_ = registry_.series_count();

  auto counters = registry_.counter_series();
  std::vector<CounterSeries> new_counters;
  for (auto& [name, metric] : counters) {
    if (!selected(name)) continue;
    CounterSeries s{std::move(name), metric, 0};
    for (const auto& old : counter_series_)
      if (old.metric == metric) s.prev = old.prev;
    new_counters.push_back(std::move(s));
  }
  counter_series_ = std::move(new_counters);

  gauge_series_.clear();
  for (auto& [name, metric] : registry_.gauge_series())
    if (selected(name)) gauge_series_.push_back({std::move(name), metric});

  auto hists = registry_.histogram_series();
  std::vector<HistSeries> new_hists;
  for (auto& [name, metric] : hists) {
    if (!selected(name)) continue;
    HistSeries s{std::move(name), metric, {}};
    for (auto& old : hist_series_)
      if (old.metric == metric) s.prev = std::move(old.prev);
    new_hists.push_back(std::move(s));
  }
  hist_series_ = std::move(new_hists);
}

bool TimeSeriesEngine::selected(const std::string& name) const {
  for (const auto& excluded : config_.exclude)
    if (name == excluded) return false;
  if (config_.include_prefixes.empty()) return true;
  for (const auto& prefix : config_.include_prefixes)
    if (name.compare(0, prefix.size(), prefix) == 0) return true;
  return false;
}

MetricsSnapshot TimeSeriesEngine::filter(const MetricsSnapshot& snap) const {
  MetricsSnapshot out;
  for (const auto& [name, v] : snap.counters)
    if (selected(name)) out.counters.emplace(name, v);
  for (const auto& [name, v] : snap.gauges)
    if (selected(name)) out.gauges.emplace(name, v);
  for (const auto& [name, h] : snap.histograms)
    if (selected(name)) out.histograms.emplace(name, h);
  return out;
}

MetricsSnapshot TimeSeriesEngine::filtered_snapshot() const {
  return filter(registry_.snapshot());
}

TelemetryWindow TimeSeriesEngine::sample(double now_sec) {
  if (registry_.series_count() != resolved_registry_count_) refresh_series();

  TelemetryWindow w;
  w.index = next_index_++;
  w.start_sec = prev_time_sec_;
  w.end_sec = now_sec;

  // The series vectors are name-sorted (registry order), so every map insert
  // is an O(1) emplace at the end. Counter/histogram deltas follow the
  // restart rule: a value that ran backwards (a reset between windows)
  // contributes its whole current value, never an unsigned wraparound. Gauges
  // are levels, not flows: the latest value wins.
  for (auto& s : counter_series_) {
    const std::uint64_t value = s.metric->value();
    const std::uint64_t base = s.prev <= value ? s.prev : 0;
    w.counter_deltas.emplace_hint(w.counter_deltas.end(), s.name, value - base);
    s.prev = value;
  }
  for (const auto& s : gauge_series_)
    w.gauges.emplace_hint(w.gauges.end(), s.name, s.metric->value());
  for (auto& s : hist_series_) {
    MetricsSnapshot::HistogramState cur = s.metric->state();
    MetricsSnapshot::HistogramState d = cur;
    if (s.prev.count <= cur.count && s.prev.bins.size() == cur.bins.size()) {
      d.count = cur.count - s.prev.count;
      d.sum = cur.sum - s.prev.sum;
      for (std::size_t i = 0; i < d.bins.size(); ++i)
        if (s.prev.bins[i] <= cur.bins[i]) d.bins[i] = cur.bins[i] - s.prev.bins[i];
    }
    TelemetryWindow::HistWindow hw;
    hw.count = d.count;
    hw.sum = d.sum;
    hw.p50 = histogram_state_percentile(d, 0.50);
    hw.p99 = histogram_state_percentile(d, 0.99);
    w.histograms.emplace_hint(w.histograms.end(), s.name, hw);
    s.prev = std::move(cur);
  }

  prev_time_sec_ = now_sec;
  return w;
}

std::string TimeSeriesEngine::to_jsonl(const TelemetryWindow& w, const std::string& extra) {
  std::string out;
  out.reserve(512 + extra.size());
  out += "{\"schema\":\"harmony-telemetry-v1\",\"window\":";
  append_u64(out, w.index);
  out += ",\"start\":";
  append_double(out, w.start_sec);
  out += ",\"end\":";
  append_double(out, w.end_sec);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : w.counter_deltas) {
    append_key(out, name, first);
    append_u64(out, v);
  }
  out += "},\"rates\":{";
  first = true;
  const double len = w.length_sec();
  for (const auto& [name, v] : w.counter_deltas) {
    append_key(out, name, first);
    append_double(out, len > 0.0 ? static_cast<double>(v) / len : 0.0);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : w.gauges) {
    append_key(out, name, first);
    append_double(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : w.histograms) {
    append_key(out, name, first);
    out += "{\"count\":";
    append_u64(out, h.count);
    out += ",\"sum\":";
    append_double(out, h.sum);
    out += ",\"p50\":";
    append_double(out, h.p50);
    out += ",\"p99\":";
    append_double(out, h.p99);
    out += '}';
  }
  out += '}';
  out += extra;
  out += '}';
  return out;
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "harmony_";
  for (char c : name) out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string p = prom_name(name) + "_total";
    out += "# TYPE " + p + " counter\n";
    out += p + " " + fmt_u64(v) + "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + fmt_double(v) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " histogram\n";
    const double width =
        h.bins.empty() ? 0.0 : (h.hi - h.lo) / static_cast<double>(h.bins.size());
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bins.size(); ++i) {
      cumulative += h.bins[i];
      const double le = h.lo + static_cast<double>(i + 1) * width;
      out += p + "_bucket{le=\"" + fmt_double(le) + "\"} " + fmt_u64(cumulative) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + fmt_u64(h.count) + "\n";
    out += p + "_sum " + fmt_double(h.sum) + "\n";
    out += p + "_count " + fmt_u64(h.count) + "\n";
  }
  return out;
}

}  // namespace harmony::obs
