// Flight recorder: the black box for service-mode runs.
//
// An always-on (once armed) bounded ring of recent trace events plus the
// last metrics/context snapshot, cheap to append — one relaxed atomic load
// when disarmed, a short uncontended critical section when armed. When the
// run goes wrong — a validator fails, a CHECK fires, a fatal signal arrives,
// or an SLO pages — the recorder dumps everything it holds as a bundle:
//
//   <dir>/flight-<n>.trace.json    Chrome trace of the event ring
//   <dir>/flight-<n>.context.json  reason, failing validator, key=value
//                                  context, last telemetry/metrics snapshot
//
// Dumping is the one place the observability layer touches the filesystem
// outside an explicit export call, and the signal path is the one sanctioned
// wall-clock/signal escape in src/obs (see the lint.py signal-handling
// rule). Recording itself never reads any clock: callers stamp events with
// sim time, so recording cannot perturb a deterministic run.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/trace.h"

namespace harmony::obs {

class FlightRecorder {
 public:
  // Process-wide recorder (leaky singleton, same rationale as the tracer:
  // the fatal-signal path may run during static destruction).
  static FlightRecorder& instance();

  // Events the ring keeps, and bundles written per arm(): a repeatedly
  // paging SLO must not fill the disk.
  static constexpr std::size_t kRingCapacity = 4096;
  static constexpr std::uint64_t kMaxDumps = 16;

  // Starts recording into a ring of kRingCapacity events; dumps go to `dir`
  // (created on first dump). Re-arming resets the ring and dump counter.
  void arm(const std::string& dir);
  void disarm();
  bool armed() const noexcept { return armed_.load(std::memory_order_relaxed); }

  // Appends one event to the ring (evicting the oldest when full). No-op
  // when disarmed — one relaxed load and a branch.
  void append(const TraceEvent& event);

  // Key=value context shown in the dump bundle ("seed", "machines", ...).
  void set_context(const std::string& key, const std::string& value);

  // Latest metrics/telemetry snapshot, stored verbatim as pre-rendered JSON
  // and embedded raw in the context bundle.
  void note_metrics_json(const std::string& json);

  // Writes flight-<n>.trace.json + flight-<n>.context.json. `reason` is a
  // short machine-readable cause ("check-failure", "slo-page:NAME",
  // "fatal-signal:6"); `detail` is free text; `validator` names the failing
  // validator when one is known. Returns false on I/O failure (and when
  // disarmed). Thread-safe; each dump gets a fresh index.
  bool dump(const std::string& reason, const std::string& detail = "",
            const std::string& validator = "");

  // Hook for check::fail: records the failure and dumps. Never throws.
  void on_check_failure(const std::string& description, const std::string& validator);

  // Hook for the fatal-signal handler installed by tools/harmony_sim.cpp.
  // Best-effort: not strictly async-signal-safe (it allocates), but the
  // process is already doomed and the bundle is usually recoverable.
  void on_fatal_signal(int signo);

  std::uint64_t dumps() const;
  std::size_t ring_size() const;

 private:
  FlightRecorder() = default;

  std::atomic<bool> armed_{false};
  mutable common::Mutex mu_;
  std::string dir_ GUARDED_BY(mu_);
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);  // insertion order, oldest first
  std::size_t ring_head_ GUARDED_BY(mu_) = 0;     // next slot once the ring wrapped
  std::map<std::string, std::string> context_ GUARDED_BY(mu_);
  std::string metrics_json_ GUARDED_BY(mu_);
  std::uint64_t dump_index_ GUARDED_BY(mu_) = 0;
};

}  // namespace harmony::obs
