#include "obs/slo.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace harmony::obs {

namespace {

// Burn-rate rule: page when at least kFastBurn of the last kFastWindows AND
// at least kSlowBurn of the last kSlowWindows windows breached, for
// kPendingWindows consecutive windows.
constexpr std::size_t kFastWindows = 3;
constexpr std::size_t kSlowWindows = 12;
constexpr double kFastBurn = 1.0;
constexpr double kSlowBurn = 0.5;
constexpr std::size_t kPendingWindows = 2;
static_assert(kFastWindows <= kSlowWindows, "the breach history holds the slow window");
static_assert(kPendingWindows >= 2, "a first burning window only goes pending");

constexpr std::array<SloKind, 4> kSloKinds = {
    SloKind::kQueueDelayP99, SloKind::kRejectionRate, SloKind::kDriftEscalationRate,
    SloKind::kSchedThroughputFloor};

}  // namespace

const char* to_string(SloKind kind) noexcept {
  switch (kind) {
    case SloKind::kQueueDelayP99:
      return "queue-delay-p99";
    case SloKind::kRejectionRate:
      return "rejection-rate";
    case SloKind::kDriftEscalationRate:
      return "drift-escalation-rate";
    case SloKind::kSchedThroughputFloor:
      return "sched-throughput-floor";
  }
  return "?";
}

const char* to_string(AlertState state) noexcept {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
    case AlertState::kResolved:
      return "resolved";
  }
  return "?";
}

bool parse_slo(const std::string& arg, SloSpec& spec, std::string& error) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) {
    error = "expected NAME=THRESHOLD, got '" + arg + "'";
    return false;
  }
  const std::string name = arg.substr(0, eq);
  const std::string value = arg.substr(eq + 1);

  const auto kind = std::find_if(kSloKinds.begin(), kSloKinds.end(),
                                 [&](SloKind k) { return name == to_string(k); });
  if (kind == kSloKinds.end()) {
    std::string known;
    for (const SloKind k : kSloKinds) {
      if (!known.empty()) known += ", ";
      known += to_string(k);
    }
    error = "unknown SLO '" + name + "' (known: " + known + ")";
    return false;
  }

  SloSpec out;
  out.kind = *kind;

  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out.threshold);
  if (ec != std::errc{} || ptr != end || !std::isfinite(out.threshold)) {
    error = "bad SLO threshold '" + value + "' for " + name;
    return false;
  }
  spec = out;
  return true;
}

double SloMonitor::window_value(const SloSpec& spec, const TelemetryWindow& w) {
  switch (spec.kind) {
    case SloKind::kQueueDelayP99: {
      const auto it = w.histograms.find("svc.queue_delay_sec");
      return it == w.histograms.end() ? 0.0 : it->second.p99;
    }
    case SloKind::kRejectionRate: {
      const auto arrivals = w.counter_deltas.find("svc.arrivals");
      const auto rejected = w.counter_deltas.find("svc.rejected");
      const double a =
          arrivals == w.counter_deltas.end() ? 0.0 : static_cast<double>(arrivals->second);
      const double r =
          rejected == w.counter_deltas.end() ? 0.0 : static_cast<double>(rejected->second);
      return a <= 0.0 ? 0.0 : r / a;
    }
    case SloKind::kDriftEscalationRate:
      return w.rate("svc.full_reschedules") * 3600.0;  // per sim-hour
    case SloKind::kSchedThroughputFloor:
      return w.rate("svc.scheduling_events");
  }
  return 0.0;
}

SloMonitor::SloMonitor(SloSpec spec) : spec_(spec) {}

double SloMonitor::breach_fraction(std::size_t last_n) const {
  const std::size_t n = std::min(last_n, breaches_.size());
  if (n == 0) return 0.0;
  std::size_t breached = 0;
  for (std::size_t i = breaches_.size() - n; i < breaches_.size(); ++i)
    if (breaches_[i]) ++breached;
  // Fraction over the nominal window, not the observed one: with only 1 of
  // 12 slow windows seen so far, one breach is 1/12 of the budget, not 1/1.
  return static_cast<double>(breached) / static_cast<double>(last_n);
}

bool SloMonitor::evaluate(const TelemetryWindow& w) {
  last_value_ = window_value(spec_, w);
  const bool breached = spec_.kind == SloKind::kSchedThroughputFloor
                            ? last_value_ < spec_.threshold
                            : last_value_ > spec_.threshold;
  breaches_.push_back(breached);
  while (breaches_.size() > kSlowWindows) breaches_.pop_front();

  const bool burning = breach_fraction(kFastWindows) >= kFastBurn &&
                       breach_fraction(kSlowWindows) >= kSlowBurn;

  const AlertState before = state_;
  switch (state_) {
    case AlertState::kInactive:
    case AlertState::kResolved:
      if (burning) {
        burn_streak_ = 1;
        state_ = AlertState::kPending;
      }
      break;
    case AlertState::kPending:
      if (burning) {
        if (++burn_streak_ >= kPendingWindows) {
          state_ = AlertState::kFiring;
          ++pages_;
        }
      } else {
        // The burn didn't confirm: fall back to the last stable state.
        burn_streak_ = 0;
        state_ = pages_ > 0 ? AlertState::kResolved : AlertState::kInactive;
      }
      break;
    case AlertState::kFiring:
      if (!burning) {
        burn_streak_ = 0;
        state_ = AlertState::kResolved;
      }
      break;
  }
  return state_ != before;
}

std::string SloMonitor::state_json() const {
  char value[48];
  std::snprintf(value, sizeof(value), "%.17g", last_value_);
  std::string out = "{\"name\":\"";
  out += to_string(spec_.kind);
  out += "\",\"state\":\"";
  out += to_string(state_);
  out += "\",\"value\":";
  out += value;
  out += ",\"breached\":";
  out += last_breached() ? '1' : '0';
  out += '}';
  return out;
}

}  // namespace harmony::obs
