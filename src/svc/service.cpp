#include "svc/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "common/logging.h"
#include "harmony/scheduler.h"
#include "harmony/validate.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace harmony::svc {

namespace {

// Decision-latency / throughput accounting only: wall readings are reported
// (how fast is the scheduling plane on this host) and never feed back into
// simulated time, so the determinism of the service run is unaffected.
using WallClock = std::chrono::steady_clock;  // lint: allow-nondeterminism

double wall_seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// Per-arrival lognormal jitter applied to the catalog profile (cv), so an
// unbounded stream does not repeat 80 identical jobs forever.
constexpr double kProfileJitterCv = 0.10;
// Iteration counts are clamped to this, bounding a single job's residency.
constexpr std::size_t kMaxIterations = 30;
// Churn damping: a full re-run is considered only after this many scheduling
// events since the previous one, however fast drift re-crosses the threshold.
constexpr std::uint64_t kFullRescheduleCooldownEvents = 64;

// Relative slack for the incremental-vs-full equivalence validator. The
// bound includes one drift threshold's worth of tolerated decay, so it must
// exceed the threshold: 0.35 covers the default 0.10, and thresholds from
// 0.35 up get the threshold plus 0.25.
double validator_slack(double drift_threshold) {
  return drift_threshold < 0.35 ? 0.35 : drift_threshold + 0.25;
}

struct SvcMetrics {
  obs::Counter& arrivals;
  obs::Counter& admitted;
  obs::Counter& rejected;
  obs::Counter& completed;
  obs::Counter& joins;
  obs::Counter& leaves;
  obs::Counter& full_reschedules;
  obs::Counter& scheduling_events;
  obs::Counter& telemetry_ticks;
  obs::HistogramMetric& queue_delay_sec;
  obs::HistogramMetric& jct_sec;
  obs::HistogramMetric& decision_latency_us;
  obs::Gauge& queue_depth;
  obs::Gauge& running_jobs;
  obs::Gauge& free_machines;
  obs::Gauge& drift;
  obs::Gauge& live_groups;

  static SvcMetrics& instance() {
    auto& reg = obs::MetricsRegistry::instance();
    static SvcMetrics m{reg.counter("svc.arrivals"),
                        reg.counter("svc.admitted"),
                        reg.counter("svc.rejected"),
                        reg.counter("svc.completed"),
                        reg.counter("svc.joins"),
                        reg.counter("svc.leaves"),
                        reg.counter("svc.full_reschedules"),
                        reg.counter("svc.scheduling_events"),
                        reg.counter("svc.telemetry_ticks"),
                        reg.histogram("svc.queue_delay_sec", 0.0, 3600.0, 72),
                        reg.histogram("svc.jct_sec", 0.0, 86400.0, 96),
                        // Placed joins plus leaves, like the summary's
                        // decision latency. A release build decides in about
                        // 1.3 us on average with a p99 near 3 us, so 0.25 us
                        // bins up to 50 us resolve the median and the p99
                        // (10 us bins put nearly every sample in bin 0);
                        // slower builds clamp into the top bin.
                        reg.histogram("svc.decision_latency_us", 0.0, 50.0, 200),
                        reg.gauge("svc.queue_depth"),
                        reg.gauge("svc.running_jobs"),
                        reg.gauge("svc.free_machines"),
                        reg.gauge("svc.drift"),
                        reg.gauge("svc.live_groups")};
    return m;
  }
};

}  // namespace

Service::Service(ServiceConfig config, std::vector<exp::WorkloadSpec> catalog)
    : config_(std::move(config)),
      catalog_(std::move(catalog)),
      placement_(config_.drift_threshold, config_.machines),
      queue_(config_.admission, config_.queue_capacity),
      rng_(config_.seed) {
  HARMONY_CHECK(!catalog_.empty()) << "service needs a non-empty job catalog";
  HARMONY_CHECK(config_.machines > 0) << "service needs machines";
  HARMONY_CHECK(config_.arrival_kind != "batch")
      << "the open-loop service needs a positive-rate arrival process";
  stream_ = exp::make_arrival_stream(config_.arrival_kind, config_.mean_interarrival_sec,
                                     rng_.next_u64());

  if (config_.telemetry_interval_sec > 0.0) {
    obs::TimeSeriesConfig tc;
    tc.interval_sec = config_.telemetry_interval_sec;
    // Only the deterministic service series: scheduler.* is perturbed by the
    // pure-observer validators (their equivalence repack is instrumented) and
    // svc.decision_latency_us is wall-fed — sampling either would break the
    // byte-identical-across-validate contract.
    tc.include_prefixes = {"svc."};
    tc.exclude = {"svc.decision_latency_us"};
    telemetry_ = std::make_unique<obs::TimeSeriesEngine>(std::move(tc),
                                                         obs::MetricsRegistry::instance());
    slo_monitors_.reserve(config_.slos.size());
    for (const obs::SloSpec& spec : config_.slos) slo_monitors_.emplace_back(spec);
  } else {
    HARMONY_CHECK(config_.slos.empty() && config_.telemetry_out.empty() &&
                  config_.prom_out.empty())
        << "telemetry sinks/SLOs need telemetry_interval_sec > 0";
  }
}

Service::~Service() = default;

PendingJob Service::make_pending(core::JobId id) {
  const exp::WorkloadSpec& spec = catalog_[id % catalog_.size()];
  core::JobProfile profile = spec.profile();
  profile.cpu_work *= rng_.lognormal_noise(kProfileJitterCv);
  profile.t_net *= rng_.lognormal_noise(kProfileJitterCv);

  PendingJob p;
  p.job = core::SchedJob{id, profile};
  p.seq = id;
  const std::size_t iterations = std::min(spec.iterations, kMaxIterations);
  // Isolated-run estimate at the balance-point DoP; the SJF admission key.
  std::size_t dop = config_.machines;
  if (profile.t_net > 0.0) {
    dop = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(profile.cpu_work / profile.t_net)), 1,
        config_.machines);
  }
  p.expected_jct = static_cast<double>(iterations) * profile.t_itr(dop);
  return p;
}

void Service::count_scheduling_event() {
  ++summary_.scheduling_events;
  SvcMetrics::instance().scheduling_events.add();
  maybe_validate();
}

void Service::flight_instant(obs::EventKind kind, core::JobId id) {
  auto& recorder = obs::FlightRecorder::instance();
  if (!recorder.armed()) return;
  obs::TraceEvent e;
  e.ts_us = sim_.now() * 1e6;
  e.kind = kind;
  e.phase = obs::Phase::kInstant;
  e.clock = obs::ClockDomain::kSim;
  if (id != core::kNoJob) e.job = static_cast<std::uint32_t>(id);
  recorder.append(e);
}

void Service::telemetry_tick() {
  auto& metrics = SvcMetrics::instance();
  metrics.telemetry_ticks.add();
  // Refresh the level gauges so every window reflects current state even when
  // no scheduling event updated them inside the window.
  metrics.queue_depth.set(static_cast<double>(queue_.size()));
  metrics.running_jobs.set(static_cast<double>(placement_.running_jobs()));
  metrics.free_machines.set(static_cast<double>(placement_.free_machines()));
  metrics.drift.set(placement_.drift());
  metrics.live_groups.set(static_cast<double>(placement_.live_group_count()));

  const obs::TelemetryWindow& w = telemetry_->sample(sim_.now());
  last_sample_sec_ = sim_.now();
  ++summary_.telemetry_windows;

  std::string extra;
  if (!slo_monitors_.empty()) {
    extra = ",\"slos\":[";
    bool first = true;
    for (obs::SloMonitor& monitor : slo_monitors_) {
      if (monitor.evaluate(w)) {
        auto& recorder = obs::FlightRecorder::instance();
        if (recorder.armed()) {
          obs::TraceEvent e;
          e.ts_us = sim_.now() * 1e6;
          e.kind = obs::EventKind::kSloAlert;
          e.phase = obs::Phase::kInstant;
          e.clock = obs::ClockDomain::kSim;
          e.value = static_cast<double>(static_cast<std::uint8_t>(monitor.state()));
          recorder.append(e);
        }
        if (monitor.state() == obs::AlertState::kFiring) {
          ++summary_.slo_pages;
          // A page pulls the black-box handle. The bundled metrics snapshot
          // is the previous window's (this one is still being rendered).
          recorder.dump("slo-page:" + monitor.spec().name, monitor.state_json());
        }
      }
      if (!first) extra += ',';
      first = false;
      extra += monitor.state_json();
    }
    extra += ']';
  }

  const std::string line = obs::TimeSeriesEngine::to_jsonl(w, extra);
  telemetry_jsonl_ += line;
  telemetry_jsonl_ += '\n';
  if (telemetry_file_) *telemetry_file_ << line << '\n';
  obs::FlightRecorder::instance().note_metrics_json(line);
}

void Service::maybe_validate() {
  if (config_.validate_every_events == 0) return;
  if (summary_.scheduling_events % config_.validate_every_events != 0) return;
  const auto report = validate_state();
  ++summary_.validations_run;
  if (!report.ok()) check::fail(report.failures.front());
}

check::ValidationReport Service::validate_state() const {
  check::Validation v("svc.service");
  core::validate_incremental_state(placement_, v);
  core::validate_incremental_vs_full(placement_, validator_slack(config_.drift_threshold), v);
  HARMONY_VALIDATE(v, queue_.size() <= queue_.capacity())
      << "pending queue holds " << queue_.size() << " jobs over a capacity of "
      << queue_.capacity();
  HARMONY_VALIDATE(v, queue_.rejected() <= queue_.offered())
      << "rejection accounting: " << queue_.rejected() << " shed of "
      << queue_.offered() << " offered";
  return v.report();
}

bool Service::try_place(PendingJob& p) {
  auto& metrics = SvcMetrics::instance();
  const auto t0 = WallClock::now();
  const auto placed = placement_.join(p.job);
  if (!placed) return false;
  const double latency_us = 1e6 * wall_seconds_since(t0);
  join_latencies_us_.add(latency_us);
  metrics.decision_latency_us.observe(latency_us);

  ++summary_.incremental_joins;
  if (placed->created_group) ++summary_.groups_created;
  metrics.joins.add();
  count_scheduling_event();

  const double now = sim_.now();
  const double delay = now - p.arrival_time;
  queue_delays_.add(delay);
  metrics.queue_delay_sec.observe(delay);

  const exp::WorkloadSpec& spec = catalog_[p.job.id % catalog_.size()];
  const auto iterations =
      static_cast<double>(std::min(spec.iterations, kMaxIterations));
  const double service_time = iterations * placed->group_t_itr;
  metrics.running_jobs.set(static_cast<double>(placement_.running_jobs()));
  metrics.free_machines.set(static_cast<double>(placement_.free_machines()));
  sim_.schedule_in(service_time, [this, id = p.job.id, at = p.arrival_time] {
    on_departure(id, at);
  });
  return true;
}

void Service::on_departure(core::JobId id, double arrival_time) {
  auto& metrics = SvcMetrics::instance();
  const auto t0 = WallClock::now();
  HARMONY_CHECK(placement_.leave(id)) << check::job(id) << "departure of an unplaced job";
  const double latency_us = 1e6 * wall_seconds_since(t0);
  leave_latencies_us_.add(latency_us);
  metrics.decision_latency_us.observe(latency_us);

  ++summary_.incremental_leaves;
  metrics.leaves.add();
  count_scheduling_event();

  ++summary_.completed;
  metrics.completed.add();
  flight_instant(obs::EventKind::kDepart, id);
  const double jct = sim_.now() - arrival_time;
  jcts_.add(jct);
  metrics.jct_sec.observe(jct);
  metrics.running_jobs.set(static_cast<double>(placement_.running_jobs()));
  metrics.free_machines.set(static_cast<double>(placement_.free_machines()));

  drain_queue();
  maybe_full_reschedule();
  metrics.queue_depth.set(static_cast<double>(queue_.size()));
}

void Service::drain_queue() {
  while (auto p = queue_.poll()) {
    if (try_place(*p)) continue;
    queue_.restore(std::move(*p));
    break;
  }
}

void Service::maybe_full_reschedule() {
  if (!placement_.needs_full_reschedule()) return;
  if (summary_.scheduling_events - events_at_last_full_ < kFullRescheduleCooldownEvents)
    return;
  full_reschedule();
  drain_queue();  // a redistribution may open room for queued jobs
}

void Service::full_reschedule() {
  const auto t0 = WallClock::now();
  const auto pool = placement_.pool();
  if (pool.empty()) {
    // Nothing to repack (drift fired on free-pool growth after a full drain);
    // just reset the baseline so the trigger disarms.
    placement_.rebaseline();
    events_at_last_full_ = summary_.scheduling_events;
    return;
  }

  // Repack *all* running jobs. core::schedule() proper optimizes an
  // admission prefix and may park queue-tail jobs — correct at submission
  // time, but a running job cannot be evicted by a background re-pack.
  const core::ScheduleDecision decision = core::repack(pool, config_.machines);
  placement_.adopt(decision, pool);
  for (const core::SchedJob& j : pool)
    HARMONY_CHECK(placement_.contains(j.id))
        << check::job(j.id) << "full reschedule stranded a running job";
  full_reschedule_latencies_us_.add(1e6 * wall_seconds_since(t0));

  ++summary_.full_reschedules;
  SvcMetrics::instance().full_reschedules.add();
  flight_instant(obs::EventKind::kSchedule, core::kNoJob);
  events_at_last_full_ = summary_.scheduling_events;
  count_scheduling_event();
}

void Service::on_arrival() {
  auto& metrics = SvcMetrics::instance();
  ++summary_.arrivals;
  metrics.arrivals.add();
  HARMONY_CHECK(next_id_ < core::kNoJob) << "service job ids exhausted";
  PendingJob p = make_pending(static_cast<core::JobId>(next_id_++));
  p.arrival_time = sim_.now();
  flight_instant(obs::EventKind::kArrival, p.job.id);

  // Queue-ahead fairness: an arrival only bypasses the queue when nothing is
  // waiting; otherwise it lines up and the drain order is the policy's call.
  bool settled = false;
  const core::JobId arrived_id = p.job.id;
  if (queue_.empty() && try_place(p)) {
    ++summary_.admitted;
    metrics.admitted.add();
    flight_instant(obs::EventKind::kAdmit, arrived_id);
    settled = true;
  }
  if (!settled) {
    if (queue_.offer(std::move(p))) {
      ++summary_.admitted;
      metrics.admitted.add();
      flight_instant(obs::EventKind::kAdmit, arrived_id);
    } else {
      ++summary_.rejected;
      metrics.rejected.add();
      flight_instant(obs::EventKind::kReject, arrived_id);
      count_scheduling_event();  // a shed is a scheduling decision too
    }
  }
  maybe_full_reschedule();
  metrics.queue_depth.set(static_cast<double>(queue_.size()));

  const double t = stream_->next();
  if (t <= config_.duration_sec) {
    sim_.schedule_at(t, [this] { on_arrival(); });
  }
}

ServiceSummary Service::run() {
  HARMONY_CHECK(!ran_) << "Service::run is single-shot";
  ran_ = true;

  if (telemetry_) {
    if (!config_.telemetry_out.empty()) {
      telemetry_file_ = std::make_unique<std::ofstream>(config_.telemetry_out);
      if (!*telemetry_file_) {
        HLOG(kError) << "service: cannot open telemetry sink " << config_.telemetry_out;
        telemetry_file_.reset();
      }
    }
    auto& recorder = obs::FlightRecorder::instance();
    if (recorder.armed()) {
      recorder.set_context("mode", "service");
      recorder.set_context("seed", std::to_string(config_.seed));
      recorder.set_context("machines", std::to_string(config_.machines));
      recorder.set_context("duration_sec", std::to_string(config_.duration_sec));
    }
    // Cadence ticks come from the simulator's recurring slot and stop at the
    // arrival horizon. The post-horizon drain can run for a long,
    // workload-dependent tail of sim time with nothing happening but
    // departures; ticking through it at full cadence would bury the
    // telemetry in thousands of idle windows (and dominate the service's wall
    // cost). The final window below closes the whole tail instead.
    const double interval = config_.telemetry_interval_sec;
    sim_.schedule_recurring(interval, interval, [this, interval] {
      telemetry_tick();
      return sim_.now() + interval <= config_.duration_sec;
    });
  }

  const auto wall0 = WallClock::now();
  const double first = stream_->next();
  if (first <= config_.duration_sec) {
    sim_.schedule_at(first, [this] { on_arrival(); });
  }
  sim_.run();
  summary_.wall_seconds = wall_seconds_since(wall0);

  if (telemetry_) {
    // One final window covering the drain tail past the arrival horizon
    // (skipped when the run ended exactly on a cadence tick).
    if (sim_.now() > last_sample_sec_) telemetry_tick();
    if (telemetry_file_) {
      telemetry_file_->flush();
      if (!*telemetry_file_) {
        HLOG(kError) << "service: telemetry sink " << config_.telemetry_out << " failed";
      }
      telemetry_file_.reset();
    }
    if (!config_.prom_out.empty()) {
      std::ofstream prom(config_.prom_out);
      if (prom) {
        prom << obs::prometheus_text(telemetry_->filtered_snapshot());
      } else {
        HLOG(kError) << "service: cannot open prometheus sink " << config_.prom_out;
      }
    }
    for (const obs::SloMonitor& monitor : slo_monitors_) {
      char line[192];
      std::snprintf(line, sizeof(line), "slo %-24s %-8s  pages %llu  last %.6g\n",
                    monitor.spec().name.c_str(), obs::to_string(monitor.state()),
                    static_cast<unsigned long long>(monitor.pages()),
                    monitor.last_value());
      summary_.slo_lines += line;
    }
  }

  summary_.duration_sec = config_.duration_sec;
  summary_.running_at_end = placement_.running_jobs();
  summary_.queued_at_end = queue_.size();
  summary_.queue_delay_mean = queue_delays_.mean();
  summary_.queue_delay_p50 = queue_delays_.quantile(0.5);
  summary_.queue_delay_p99 = queue_delays_.quantile(0.99);
  summary_.jct_mean = jcts_.mean();
  summary_.jct_p50 = jcts_.quantile(0.5);
  summary_.jct_p99 = jcts_.quantile(0.99);
  summary_.final_score = placement_.current_score();
  summary_.final_drift = placement_.drift();
  summary_.live_groups_at_end = placement_.live_group_count();
  summary_.free_machines_at_end = placement_.free_machines();
  summary_.events_per_wall_sec =
      summary_.wall_seconds > 0.0
          ? static_cast<double>(summary_.scheduling_events) / summary_.wall_seconds
          : 0.0;
  summary_.join_latency_mean_us = join_latencies_us_.mean();
  summary_.join_latency_p99_us = join_latencies_us_.quantile(0.99);
  summary_.leave_latency_mean_us = leave_latencies_us_.mean();
  summary_.leave_latency_p99_us = leave_latencies_us_.quantile(0.99);
  summary_.full_reschedule_mean_us = full_reschedule_latencies_us_.mean();
  summary_.full_reschedule_p99_us = full_reschedule_latencies_us_.quantile(0.99);
  // Joins and leaves together: one merged copy, selected in place, so the
  // summary holds no more than one extra copy of the samples at a time.
  std::vector<double> decisions = join_latencies_us_.samples();
  const std::vector<double>& leaves = leave_latencies_us_.samples();
  decisions.insert(decisions.end(), leaves.begin(), leaves.end());
  if (!decisions.empty()) {
    summary_.decision_latency_mean_us =
        std::accumulate(decisions.begin(), decisions.end(), 0.0) /
        static_cast<double>(decisions.size());
  }
  summary_.decision_latency_p99_us = select_quantile(decisions, 0.99);
  return summary_;
}

std::string ServiceSummary::report() const {
  char buf[2048];
  const double reject_pct =
      arrivals > 0 ? 100.0 * static_cast<double>(rejected) / static_cast<double>(arrivals)
                   : 0.0;
  std::snprintf(
      buf, sizeof(buf),
      "service report (harmony-svc-v1)\n"
      "duration            %12.1f s\n"
      "arrivals            %12llu\n"
      "admitted            %12llu\n"
      "rejected            %12llu  (%.2f%%)\n"
      "completed           %12llu\n"
      "running at end      %12llu\n"
      "queued at end       %12llu\n"
      "scheduling events   %12llu  (joins %llu, leaves %llu, full reschedules %llu, "
      "groups created %llu)\n"
      "queue delay         mean %10.2f s   p50 %10.2f s   p99 %10.2f s\n"
      "JCT                 mean %10.2f h   p50 %10.2f h   p99 %10.2f h\n"
      "modelled score      %12.6f  (drift %.6f)\n"
      "live groups         %12zu\n"
      "free machines       %12zu\n",
      duration_sec, static_cast<unsigned long long>(arrivals),
      static_cast<unsigned long long>(admitted), static_cast<unsigned long long>(rejected),
      reject_pct, static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(running_at_end),
      static_cast<unsigned long long>(queued_at_end),
      static_cast<unsigned long long>(scheduling_events),
      static_cast<unsigned long long>(incremental_joins),
      static_cast<unsigned long long>(incremental_leaves),
      static_cast<unsigned long long>(full_reschedules),
      static_cast<unsigned long long>(groups_created), queue_delay_mean, queue_delay_p50,
      queue_delay_p99, jct_mean / 3600.0, jct_p50 / 3600.0, jct_p99 / 3600.0, final_score,
      final_drift, live_groups_at_end, free_machines_at_end);
  std::string out = buf;
  // Telemetry block only when telemetry ran, so runs without it render the
  // same bytes as before this block existed.
  if (telemetry_windows > 0) {
    std::snprintf(buf, sizeof(buf), "telemetry windows   %12llu  (slo pages %llu)\n",
                  static_cast<unsigned long long>(telemetry_windows),
                  static_cast<unsigned long long>(slo_pages));
    out += buf;
    out += slo_lines;
  }
  return out;
}

}  // namespace harmony::svc
