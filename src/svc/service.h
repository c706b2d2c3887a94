// The online scheduling service: a long-running, continuously-fed front end
// over the Harmony scheduler.
//
// Where ClusterSim (src/exp) replays one finite workload to completion and
// simulates every subtask, the Service models the *scheduling plane* at
// production rates: an open-loop ArrivalStream submits jobs forever, an
// AdmissionQueue sheds load beyond a bounded backlog, and every join/leave is
// handled by the bounded-work IncrementalScheduler — full Algorithm 1 runs
// only when measured drift exceeds the configured threshold. Job execution is
// aggregated: a placed job departs after iterations x the modelled group
// iteration time at placement (the perf-model view of its co-schedule), so
// one job costs O(1) simulator events and the service sustains >100k
// scheduling events/sec on a 10k-machine cluster (bench_svc_throughput).
//
// Determinism contract: everything driven by simulated time — arrival
// sequence, placement decisions, per-job JCTs, queue/rejection accounting,
// the final modelled score — is bit-reproducible from ServiceConfig::seed;
// ServiceSummary::report() covers exactly that deterministic surface. Wall
// clock readings (decision latency, events/sec) are reported separately and
// never feed back into simulated time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "exp/arrivals.h"
#include "exp/workload.h"
#include "harmony/incremental.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "svc/admission.h"

namespace harmony::svc {

struct ServiceConfig {
  std::size_t machines = 1000;
  // Arrivals are scheduled up to this simulated horizon; jobs already placed
  // run to completion afterwards ("stop accepting, finish draining" is the
  // summary's running_at_end / queued_at_end tail).
  double duration_sec = 24 * 3600.0;

  // Open-loop arrival process: "poisson" or "trace" (see exp::ArrivalStream)
  // at the given mean inter-arrival time. 1/mean is the offered rate.
  std::string arrival_kind = "poisson";
  double mean_interarrival_sec = 1.0;

  AdmissionPolicy admission = AdmissionPolicy::kFifo;
  std::size_t queue_capacity = 1024;

  std::uint64_t seed = 1;

  // The incremental rescheduler escalates to a full Algorithm-1 repack when
  // its drift (see core::IncrementalScheduler::drift) exceeds this.
  double drift_threshold = 0.10;

  // Run the deep validators (incremental state + incremental-vs-full
  // equivalence) every N scheduling events; 0 = off. Throws check::CheckError
  // on the first corrupt state. Read-only, consumes no randomness: runs are
  // bit-identical with it on or off. The Service derives the equivalence
  // validator's slack from drift_threshold.
  std::uint64_t validate_every_events = 0;

  // Live telemetry (obs::TimeSeriesEngine over the svc.* series): close one
  // window every interval of *sim* time; 0 = off. Windowing samples only
  // deterministic series (wall-fed svc.decision_latency_us is excluded), so
  // telemetry output is a pure function of the seed, with or without
  // validators.
  double telemetry_interval_sec = 0.0;
  std::string telemetry_out;  // optional JSONL sink, one line per window
  std::string prom_out;       // optional Prometheus exposition at end of run
  // SLO objectives evaluated against each closed window (obs::SloMonitor).
  // A monitor entering `firing` counts a page and, when a flight recorder is
  // armed, pulls its dump handle.
  std::vector<obs::SloSpec> slos;
};

// End-of-run statistics. All fields except the wall-clock block are
// deterministic in the seed; report() renders only the deterministic part.
struct ServiceSummary {
  // Admission accounting.
  std::uint64_t arrivals = 0;   // jobs the stream submitted within duration
  std::uint64_t admitted = 0;   // placed immediately or queued
  std::uint64_t rejected = 0;   // shed by the bounded queue
  std::uint64_t completed = 0;  // departed before the simulation drained
  std::uint64_t running_at_end = 0;
  std::uint64_t queued_at_end = 0;

  // Scheduling-plane accounting. scheduling_events = incremental_joins +
  // incremental_leaves + rejections + full_reschedules — the unit the
  // events/sec throughput target counts.
  std::uint64_t scheduling_events = 0;
  std::uint64_t incremental_joins = 0;
  std::uint64_t incremental_leaves = 0;
  std::uint64_t groups_created = 0;
  std::uint64_t full_reschedules = 0;
  std::size_t validations_run = 0;

  // Steady-state service metrics (simulated time; deterministic).
  double duration_sec = 0.0;
  double queue_delay_mean = 0.0, queue_delay_p50 = 0.0, queue_delay_p99 = 0.0;
  double jct_mean = 0.0, jct_p50 = 0.0, jct_p99 = 0.0;
  double final_score = 0.0;  // modelled cluster score at the horizon
  double final_drift = 0.0;
  std::size_t live_groups_at_end = 0;
  std::size_t free_machines_at_end = 0;

  // Telemetry block (deterministic; rendered by report() only when telemetry
  // ran, so legacy runs keep their byte-exact report).
  std::uint64_t telemetry_windows = 0;
  std::uint64_t slo_pages = 0;
  std::string slo_lines;  // pre-rendered per-objective report lines

  // Wall-clock block (nondeterministic; excluded from report()).
  double wall_seconds = 0.0;
  double events_per_wall_sec = 0.0;
  // Incremental decisions: placed joins plus leaves.
  double decision_latency_mean_us = 0.0;
  double decision_latency_p99_us = 0.0;
  // The same split per decision class. A join is one placed job's
  // IncrementalScheduler::join (declined joins are not timed), a leave one
  // departure's leave, and a full reschedule the pool, core::repack and
  // adopt of one escalation.
  double join_latency_mean_us = 0.0;
  double join_latency_p99_us = 0.0;
  double leave_latency_mean_us = 0.0;
  double leave_latency_p99_us = 0.0;
  double full_reschedule_mean_us = 0.0;
  double full_reschedule_p99_us = 0.0;

  // Deterministic multi-line rendering (bit-identical across repeats of the
  // same seeded config; pinned by test_svc golden tests and the CI smoke).
  std::string report() const;
};

class Service {
 public:
  Service(ServiceConfig config, std::vector<exp::WorkloadSpec> catalog);
  ~Service();

  // Runs the service: arrivals over [0, duration_sec], then drains departure
  // events already scheduled. Single-shot.
  ServiceSummary run();

  // Everything --telemetry-out would have written, newline-terminated JSONL
  // (empty when telemetry is off). Byte-deterministic in the seed.
  const std::string& telemetry_jsonl() const noexcept { return telemetry_jsonl_; }
  const std::vector<obs::SloMonitor>& slo_monitors() const noexcept {
    return slo_monitors_;
  }

  const core::IncrementalScheduler& placement() const noexcept { return placement_; }

  // Deep validators: structural invariants of the incremental state plus the
  // incremental-vs-full equivalence bound. Read-only.
  check::ValidationReport validate_state() const;

  // Test-only corruption passthrough (proves validate_state detects it).
  void corrupt_for_test(core::IncrementalScheduler::Corruption kind) {
    placement_.corrupt_for_test(kind);
  }

 private:
  void on_arrival();
  // Places one pending job: incremental join, departure event, samples.
  bool try_place(PendingJob& p);
  void on_departure(core::JobId id, double arrival_time);
  void drain_queue();
  void maybe_full_reschedule();
  void full_reschedule();
  void count_scheduling_event();
  PendingJob make_pending(core::JobId id);
  void maybe_validate();
  // Closes one telemetry window at the current sim time and evaluates SLOs.
  void telemetry_tick();
  // Writes the svc.* level gauges from the current state. Their readers are
  // the telemetry windows and the end-of-run registry, so the ticks and the
  // end of run() write them, not every event.
  void set_level_gauges();
  // Sim-stamped instant into the flight recorder's ring (no-op when disarmed).
  void flight_instant(obs::EventKind kind, core::JobId id);

  ServiceConfig config_;
  std::vector<exp::WorkloadSpec> catalog_;
  std::unique_ptr<exp::ArrivalStream> stream_;
  core::IncrementalScheduler placement_;
  AdmissionQueue queue_;
  sim::Simulator sim_;
  Rng rng_;

  std::uint64_t next_id_ = 0;
  std::uint64_t events_at_last_full_ = 0;
  bool ran_ = false;

  SampleSet queue_delays_;
  SampleSet jcts_;
  // Wall; excluded from the report.
  SampleSet join_latencies_us_;
  SampleSet leave_latencies_us_;
  SampleSet full_reschedule_latencies_us_;
  ServiceSummary summary_;

  // Telemetry plumbing (null / empty when telemetry_interval_sec == 0).
  std::unique_ptr<obs::TimeSeriesEngine> telemetry_;
  std::vector<obs::SloMonitor> slo_monitors_;
  std::unique_ptr<std::ofstream> telemetry_file_;
  std::string telemetry_jsonl_;
  double last_sample_sec_ = 0.0;
};

}  // namespace harmony::svc
