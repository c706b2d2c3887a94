// SLO monitors: declarative service-level objectives over the telemetry
// window stream, evaluated with multi-window burn rates.
//
// Each objective names a windowed signal (queue-delay p99, rejection rate,
// drift-escalation rate, scheduling-throughput floor) and a threshold. A
// window either breaches or not; the monitor keeps a bounded breach history
// and pages only when both a fast window (the last 3 samples, catch sharp
// regressions quickly) and a slow window (the last 12, filter one-off blips)
// burn past their fractions — the standard fast/slow burn-rate rule from SRE
// error-budget alerting, here on sim time (constants in slo.cpp).
//
// The alert state machine is fully deterministic: inactive → pending (burn
// condition met, waiting out 2 consecutive confirmations) → firing →
// resolved. evaluate() reports each change and state() reads the result.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "obs/timeseries.h"

namespace harmony::obs {

enum class SloKind : std::uint8_t {
  kQueueDelayP99,         // per-window svc.queue_delay_sec p99 (seconds, upper bound)
  kRejectionRate,         // rejected / arrivals per window (fraction, upper bound)
  kDriftEscalationRate,   // full reschedules per sim-hour (upper bound)
  kSchedThroughputFloor,  // scheduling events per sim-second (lower bound)
};

const char* to_string(SloKind kind) noexcept;

// An objective: a signal and its threshold. Its name is to_string(kind), and
// only kSchedThroughputFloor is a floor (breach when value < threshold).
struct SloSpec {
  SloKind kind = SloKind::kQueueDelayP99;
  double threshold = 0.0;
};

// Parses "name=threshold" ("queue-delay-p99=120"). Recognized names:
// queue-delay-p99 (sec), rejection-rate (fraction), drift-escalation-rate
// (full reschedules per sim-hour), sched-throughput-floor (events/sim-sec).
// The threshold is the whole text after '=' as a finite number. Returns
// false (and fills `error`) on unknown name or bad number.
bool parse_slo(const std::string& arg, SloSpec& spec, std::string& error);

enum class AlertState : std::uint8_t { kInactive, kPending, kFiring, kResolved };

const char* to_string(AlertState state) noexcept;

class SloMonitor {
 public:
  explicit SloMonitor(SloSpec spec);

  // Feeds one closed telemetry window; returns true when the alert state
  // changed. Deterministic: depends only on the window stream.
  bool evaluate(const TelemetryWindow& w);

  const SloSpec& spec() const { return spec_; }
  AlertState state() const { return state_; }
  double last_value() const { return last_value_; }
  bool last_breached() const { return !breaches_.empty() && breaches_.back(); }
  std::uint64_t pages() const { return pages_; }  // inactive/resolved->firing edges

  // The objective's windowed signal value (exposed for tests).
  static double window_value(const SloSpec& spec, const TelemetryWindow& w);

  // Compact JSON fragment for this monitor's current state:
  // {"name":...,"state":...,"value":...,"breached":0|1}
  std::string state_json() const;

 private:
  double breach_fraction(std::size_t last_n) const;

  SloSpec spec_;
  AlertState state_ = AlertState::kInactive;
  std::deque<bool> breaches_;  // newest at back, bounded by the slow window
  std::size_t burn_streak_ = 0;
  std::uint64_t pages_ = 0;
  double last_value_ = 0.0;
};

}  // namespace harmony::obs
