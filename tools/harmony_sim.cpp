// harmony_sim — command-line driver for cluster-scale scheduling experiments
// and the online scheduling service (src/svc).
//
//   harmony_sim [options]
//     --policy harmony|isolated|naive   scheduling policy   (default harmony)
//     --jobs N                          jobs from the catalog (default 80)
//     --machines M                      cluster size          (default 100)
//     --arrival batch|poisson:SEC|trace:SEC   arrival process (default batch)
//     --seed S                          simulation seed       (default 1)
//     --spill on|off                    data spill/reload     (default on)
//     --naive-seed S                    naive grouping shuffle seed
//     --error F                         profile error injection in [0, 1),
//                                       e.g. 0.1
//     --timeline                        print the utilization timeline
//     --trace                           per-minute cluster snapshots (stderr)
//     --chrome-trace FILE               write a Chrome trace-event JSON file
//     --report DIR                      run the trace analysis engine over the
//                                       run (implies tracing) and write
//                                       DIR/report.md + DIR/report.json,
//                                       reconciled against the run summary
//
//   Service mode (open-loop continuous arrivals, incremental rescheduling,
//   admission control; deterministic report on stdout, wall-clock throughput
//   on stderr). The workload-replay options above other than --machines,
//   --arrival and --seed are rejected here, and a workload replay rejects
//   the options below other than --service:
//     --service                         run the online service instead of a
//                                       finite workload replay
//     --duration SEC                    arrival horizon     (default 86400)
//     --arrival-rate R                  offered load, jobs/sec (default 1);
//                                       --arrival poisson:SEC|trace:SEC picks
//                                       the process shape (batch is rejected:
//                                       the service is open-loop)
//     --admission fifo|sjf              pending-queue policy  (default fifo)
//     --queue-cap N                     pending-queue capacity (default 1024)
//     --drift F                         full-reschedule drift threshold
//                                       (default 0.10)
//     --telemetry-out FILE              live telemetry as JSON Lines, one
//                                       window per line (byte-deterministic)
//     --telemetry-interval SEC          telemetry window length in sim time
//                                       (default 60 once any telemetry flag
//                                       is given)
//     --prom-out FILE                   Prometheus text exposition of the
//                                       service series at end of run
//     --slo NAME=THRESHOLD              declare an SLO (repeatable):
//                                       queue-delay-p99, rejection-rate,
//                                       drift-escalation-rate,
//                                       sched-throughput-floor
//
//   Either mode:
//     --flight-recorder DIR             arm the crash flight recorder; dumps
//                                       a Chrome trace + context bundle into
//                                       DIR on CHECK failure, fatal signal,
//                                       or SLO page
//     --validate                        deep invariant validators at every
//                                       regroup event (diagnostics on stderr;
//                                       stdout is byte-identical to a run
//                                       without this flag)
//     --metrics FILE                    write a metrics-registry JSON snapshot
//     --log-level debug|info|warn|error minimum log severity  (default warn)
//     --help                            print this help and exit
//
//   A malformed or out-of-range number (--machines 0, --error 2,
//   --arrival poisson:0) exits 2 with a message naming the option.
//
// Examples:
//   harmony_sim                                  # the paper's main setting
//   harmony_sim --policy isolated
//   harmony_sim --policy naive --naive-seed 3
//   harmony_sim --jobs 20 --machines 40 --arrival poisson:120 --timeline
//   harmony_sim --jobs 20 --machines 40 --chrome-trace out.json --metrics m.json
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <csignal>  // lint: allow-signal-handler (flight-recorder crash hook)
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/report.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "svc/service.h"

using namespace harmony;

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--policy harmony|isolated|naive] [--jobs N] [--machines M]\n"
               "          [--arrival batch|poisson:SEC|trace:SEC] [--seed S]\n"
               "          [--spill on|off] [--naive-seed S] [--error F]\n"
               "          [--timeline] [--validate] [--trace]\n"
               "          [--chrome-trace FILE] [--metrics FILE] [--report DIR]\n"
               "          [--log-level debug|info|warn|error] [--help]\n"
               "service mode (deterministic report on stdout, wall stats on stderr):\n"
               "       %s --service [--duration SEC] [--arrival-rate JOBS_PER_SEC]\n"
               "          [--admission fifo|sjf] [--queue-cap N] [--drift F]\n"
               "          [--machines M] [--arrival poisson:SEC|trace:SEC] [--seed S]\n"
               "          [--validate] [--metrics FILE]\n"
               "          [--telemetry-out FILE] [--telemetry-interval SEC]\n"
               "          [--prom-out FILE] [--slo NAME=THRESHOLD]...\n"
               "          [--flight-recorder DIR]\n",
               argv0, argv0);
}

[[noreturn]] void usage_error(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  print_usage(stderr, argv0);
  std::exit(2);
}

// The whole of `value` as the number `flag` takes. No digits, trailing text,
// a value out of the type's range or a non-finite float is a usage error
// naming the flag.
template <typename T>
T parse_number(const char* argv0, const std::string& flag, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (!ok) usage_error(argv0, flag + " needs a number, got '" + value + "'");
  return out;
}

// The mean inter-arrival time of `arrival`, "poisson:SEC" or "trace:SEC",
// which must be positive.
double parse_arrival_mean(const char* argv0, const std::string& arrival,
                          const std::string& prefix) {
  const double mean = parse_number<double>(argv0, "--arrival", arrival.substr(prefix.size()));
  if (mean <= 0.0)
    usage_error(argv0, "--arrival " + arrival + " needs a positive mean inter-arrival time");
  return mean;
}

// Options that only a workload replay reads; --service rejects them.
constexpr std::array<std::string_view, 9> kReplayOnlyOptions = {
    "--policy", "--jobs", "--spill", "--naive-seed", "--error",
    "--timeline", "--trace", "--chrome-trace", "--report"};

// Options that only the service reads; a workload replay rejects them.
constexpr std::array<std::string_view, 9> kServiceOnlyOptions = {
    "--duration", "--arrival-rate", "--admission", "--queue-cap", "--drift",
    "--telemetry-out", "--telemetry-interval", "--prom-out", "--slo"};

bool listed(std::span<const std::string_view> options, const std::string& arg) {
  return std::find(options.begin(), options.end(), arg) != options.end();
}

// Fatal-signal hook: pull the flight recorder's handle, then re-raise with
// the default disposition so the exit status still reflects the signal. The
// dump allocates — not strictly async-signal-safe, but the process is doomed
// either way and the bundle is the whole point of the black box.
extern "C" void fatal_signal_handler(int signo) {
  obs::FlightRecorder::instance().on_fatal_signal(signo);
  std::signal(signo, SIG_DFL);  // lint: allow-signal-handler
  std::raise(signo);            // lint: allow-signal-handler
}

void install_fatal_signal_handlers() {
  for (const int signo : {SIGSEGV, SIGABRT, SIGFPE, SIGILL, SIGBUS}) {
    std::signal(signo, fatal_signal_handler);  // lint: allow-signal-handler
  }
}

}  // namespace

int main(int argc, char** argv) {
  exp::ClusterSimConfig config = exp::ClusterSimConfig::harmony();
  std::string policy = "harmony";
  std::string arrival = "batch";
  bool arrival_set = false;
  std::string chrome_trace_file;
  std::string metrics_file;
  std::string report_dir;
  std::size_t jobs = 80;
  bool timeline = false;

  bool service_mode = false;
  bool machines_set = false;
  svc::ServiceConfig svc_config;
  std::string telemetry_out;
  std::string prom_out;
  double telemetry_interval_sec = 0.0;
  std::vector<obs::SloSpec> slos;
  std::string flight_recorder_dir;
  std::string replay_only_given;   // replay-only options on the command line
  std::string service_only_given;  // service-only options on the command line

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    if (listed(kReplayOnlyOptions, arg)) replay_only_given += " " + arg;
    if (listed(kServiceOnlyOptions, arg)) service_only_given += " " + arg;
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (arg == "--policy") {
      policy = next();
    } else if (arg == "--jobs") {
      jobs = parse_number<std::size_t>(argv[0], arg, next());
    } else if (arg == "--machines") {
      config.machines = parse_number<std::size_t>(argv[0], arg, next());
      if (config.machines == 0) usage_error(argv[0], "--machines must be positive");
      machines_set = true;
    } else if (arg == "--arrival") {
      arrival = next();
      arrival_set = true;
    } else if (arg == "--service") {
      service_mode = true;
    } else if (arg == "--duration") {
      svc_config.duration_sec = parse_number<double>(argv[0], arg, next());
      if (svc_config.duration_sec <= 0.0)
        usage_error(argv[0], "--duration must be positive");
    } else if (arg == "--arrival-rate") {
      const double rate = parse_number<double>(argv[0], arg, next());
      if (rate <= 0.0) usage_error(argv[0], "--arrival-rate must be positive");
      svc_config.mean_interarrival_sec = 1.0 / rate;
    } else if (arg == "--admission") {
      const std::string name = next();
      const auto policy = svc::parse_admission_policy(name);
      if (!policy) usage_error(argv[0], "unknown admission policy '" + name + "'");
      svc_config.admission = *policy;
    } else if (arg == "--queue-cap") {
      svc_config.queue_capacity = parse_number<std::size_t>(argv[0], arg, next());
    } else if (arg == "--drift") {
      svc_config.drift_threshold = parse_number<double>(argv[0], arg, next());
      if (svc_config.drift_threshold <= 0.0)
        usage_error(argv[0], "--drift must be positive");
    } else if (arg == "--seed") {
      config.seed = parse_number<std::uint64_t>(argv[0], arg, next());
    } else if (arg == "--naive-seed") {
      config.naive_grouping_seed = parse_number<std::uint64_t>(argv[0], arg, next());
    } else if (arg == "--spill") {
      const std::string value = next();
      if (value != "on" && value != "off")
        usage_error(argv[0], "--spill takes on or off, got '" + value + "'");
      config.spill_enabled = value == "on";
    } else if (arg == "--error") {
      config.model_error_injection = parse_number<double>(argv[0], arg, next());
      if (config.model_error_injection < 0.0 || config.model_error_injection >= 1.0)
        usage_error(argv[0], "--error must be in [0, 1)");
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--validate") {
      config.validate = true;
    } else if (arg == "--trace") {
      config.debug_trace = true;
    } else if (arg == "--chrome-trace") {
      chrome_trace_file = next();
    } else if (arg == "--telemetry-out") {
      telemetry_out = next();
    } else if (arg == "--telemetry-interval") {
      telemetry_interval_sec = parse_number<double>(argv[0], arg, next());
      if (telemetry_interval_sec <= 0.0)
        usage_error(argv[0], "--telemetry-interval must be positive");
    } else if (arg == "--prom-out") {
      prom_out = next();
    } else if (arg == "--slo") {
      obs::SloSpec spec;
      std::string error;
      if (!obs::parse_slo(next(), spec, error)) usage_error(argv[0], error);
      slos.push_back(std::move(spec));
    } else if (arg == "--flight-recorder") {
      flight_recorder_dir = next();
    } else if (arg == "--metrics") {
      metrics_file = next();
    } else if (arg == "--report") {
      report_dir = next();
    } else if (arg == "--log-level") {
      const std::string level = next();
      if (level == "debug") {
        log::set_level(log::Level::kDebug);
      } else if (level == "info") {
        log::set_level(log::Level::kInfo);
      } else if (level == "warn") {
        log::set_level(log::Level::kWarn);
      } else if (level == "error") {
        log::set_level(log::Level::kError);
      } else {
        usage_error(argv[0], "unknown log level '" + level + "'");
      }
    } else {
      usage_error(argv[0], "unknown option '" + arg + "'");
    }
  }

  if (!service_mode && !service_only_given.empty())
    usage_error(argv[0], "a workload replay does not take service options:" +
                             service_only_given + " (add --service)");
  if (service_mode && !replay_only_given.empty())
    usage_error(argv[0], "--service does not take workload-replay options:" + replay_only_given);

  if (!chrome_trace_file.empty() || !report_dir.empty())
    obs::Tracer::instance().set_enabled(true);

  // The flight recorder works in any mode: CHECK failures and fatal signals
  // dump regardless of whether the service is driving telemetry ticks.
  if (!flight_recorder_dir.empty()) {
    obs::FlightRecorder::instance().arm(flight_recorder_dir);
    install_fatal_signal_handlers();
  }

  if (service_mode) {
    if (arrival_set) {
      if (arrival.rfind("poisson:", 0) == 0) {
        svc_config.arrival_kind = "poisson";
        svc_config.mean_interarrival_sec = parse_arrival_mean(argv[0], arrival, "poisson:");
      } else if (arrival.rfind("trace:", 0) == 0) {
        svc_config.arrival_kind = "trace";
        svc_config.mean_interarrival_sec = parse_arrival_mean(argv[0], arrival, "trace:");
      } else if (arrival == "batch") {
        usage_error(argv[0],
                    "arrival process 'batch' is not open-loop; service mode "
                    "needs poisson:SEC or trace:SEC");
      } else {
        usage_error(argv[0], "unknown arrival process '" + arrival + "'");
      }
    }
    if (machines_set) svc_config.machines = config.machines;
    svc_config.seed = config.seed;
    if (config.validate) svc_config.validate_every_events = 256;

    // Any telemetry request implies ticking; the default cadence is one
    // window per simulated minute.
    svc_config.telemetry_out = telemetry_out;
    svc_config.prom_out = prom_out;
    svc_config.slos = slos;
    svc_config.telemetry_interval_sec = telemetry_interval_sec;
    if (svc_config.telemetry_interval_sec == 0.0 &&
        (!telemetry_out.empty() || !prom_out.empty() || !slos.empty()))
      svc_config.telemetry_interval_sec = 60.0;

    std::printf("service machines=%zu duration=%.0fs arrival=%s mean=%.3fs "
                "admission=%s queue-cap=%zu drift=%.2f seed=%llu\n\n",
                svc_config.machines, svc_config.duration_sec,
                svc_config.arrival_kind.c_str(), svc_config.mean_interarrival_sec,
                svc::to_string(svc_config.admission), svc_config.queue_capacity,
                svc_config.drift_threshold,
                static_cast<unsigned long long>(svc_config.seed));

    svc::Service service(svc_config, exp::make_catalog());
    const auto summary = service.run();
    std::fputs(summary.report().c_str(), stdout);

    // Wall-clock block on stderr: nondeterministic, kept out of the golden
    // stdout surface (CI smokes diff two same-seed runs byte-for-byte).
    std::fprintf(stderr,
                 "wall %.3f s | %.0f scheduling events/s | decision latency "
                 "mean %.1f us p99 %.1f us | join mean %.1f us p99 %.1f us | leave "
                 "mean %.1f us p99 %.1f us | full reschedule mean %.1f us p99 %.1f us\n",
                 summary.wall_seconds, summary.events_per_wall_sec,
                 summary.decision_latency_mean_us, summary.decision_latency_p99_us,
                 summary.join_latency_mean_us, summary.join_latency_p99_us,
                 summary.leave_latency_mean_us, summary.leave_latency_p99_us,
                 summary.full_reschedule_mean_us, summary.full_reschedule_p99_us);
    if (svc_config.validate_every_events != 0)
      std::fprintf(stderr, "validation: %zu passes, all invariants clean\n",
                   summary.validations_run);

    if (!metrics_file.empty()) {
      if (!obs::MetricsRegistry::instance().write_json_file(metrics_file)) {
        std::fprintf(stderr, "%s: cannot write metrics to %s\n", argv[0],
                     metrics_file.c_str());
        return 1;
      }
    }
    return 0;
  }

  if (policy == "isolated" || policy == "naive") {
    // A baseline preset fixes the regime (execution model, grouping, no
    // spill); every other value the options set carries over.
    const std::uint64_t gseed = config.naive_grouping_seed;
    exp::ClusterSimConfig preset = policy == "isolated"
                                       ? exp::ClusterSimConfig::isolated()
                                       : exp::ClusterSimConfig::naive(gseed == 0 ? 1 : gseed);
    preset.seed = config.seed;
    preset.machines = config.machines;
    preset.model_error_injection = config.model_error_injection;
    preset.debug_trace = config.debug_trace;
    preset.validate = config.validate;
    config = preset;
  } else if (policy != "harmony") {
    usage_error(argv[0], "unknown policy '" + policy + "'");
  }

  auto catalog = exp::make_catalog();
  if (jobs < catalog.size()) catalog.resize(jobs);
  while (catalog.size() < jobs) {
    auto extra = catalog[catalog.size() % 80];
    catalog.push_back(extra);
  }

  std::vector<double> arrivals;
  if (arrival == "batch") {
    arrivals = exp::batch_arrivals(catalog.size());
  } else if (arrival.rfind("poisson:", 0) == 0) {
    arrivals = exp::poisson_arrivals(catalog.size(),
                                     parse_arrival_mean(argv[0], arrival, "poisson:"),
                                     config.seed);
  } else if (arrival.rfind("trace:", 0) == 0) {
    arrivals = exp::trace_arrivals(catalog.size(),
                                   parse_arrival_mean(argv[0], arrival, "trace:"), config.seed);
  } else {
    usage_error(argv[0], "unknown arrival process '" + arrival + "'");
  }

  std::printf("policy=%s jobs=%zu machines=%zu arrival=%s spill=%s\n", policy.c_str(),
              catalog.size(), config.machines, arrival.c_str(),
              config.spill_enabled ? "on" : "off");

  exp::ClusterSim sim(config, std::move(catalog), std::move(arrivals));
  const auto summary = sim.run();

  // stderr, so --validate leaves stdout byte-identical (golden determinism).
  if (config.validate)
    std::fprintf(stderr, "validation: %zu passes, all invariants clean\n",
                 sim.validations_run());

  std::printf("\nfinished %zu jobs\n", summary.jobs.size());
  std::printf("makespan            %10.2f h\n", summary.makespan / 3600.0);
  std::printf("mean JCT            %10.2f h\n", summary.mean_jct() / 3600.0);
  std::printf("avg CPU utilization %10.1f %%\n", 100.0 * summary.avg_util.cpu);
  std::printf("avg net utilization %10.1f %%\n", 100.0 * summary.avg_util.net);
  std::printf("concurrent jobs     %10.1f  in %.1f groups\n", sim.avg_concurrent_jobs(),
              sim.avg_concurrent_groups());
  std::printf("regroup events      %10zu\n", summary.regroup_events);
  std::printf("migration pauses    %10.1f min total\n",
              summary.migration_overhead_sec / 60.0);
  std::printf("GC time fraction    %10.2f %%\n", 100.0 * summary.gc_time_fraction);
  std::printf("OOM events          %10zu\n", summary.oom_events);
  std::printf("scheduler calls     %10zu  (%.1f ms wall)\n", sim.sched_invocations(),
              1000.0 * sim.total_sched_seconds());
  const auto alpha = sim.alpha_stats();
  if (config.spill_enabled)
    std::printf("alpha (disk ratio)  mean %.2f  min %.2f  max %.2f\n", alpha.mean, alpha.min,
                alpha.max);

  if (timeline) {
    std::printf("\ntime(s)\tcpu\tnet\n%s", sim.timeline().tsv(40).c_str());
  }

  if (!chrome_trace_file.empty()) {
    if (!obs::Tracer::instance().write_chrome_trace_file(chrome_trace_file)) {
      std::fprintf(stderr, "%s: cannot write trace to %s\n", argv[0],
                   chrome_trace_file.c_str());
      return 1;
    }
    std::printf("chrome trace        %zu events -> %s\n", obs::Tracer::instance().size(),
                chrome_trace_file.c_str());
  }
  if (!metrics_file.empty()) {
    if (!obs::MetricsRegistry::instance().write_json_file(metrics_file)) {
      std::fprintf(stderr, "%s: cannot write metrics to %s\n", argv[0],
                   metrics_file.c_str());
      return 1;
    }
    std::printf("metrics snapshot    -> %s\n", metrics_file.c_str());
  }
  if (!report_dir.empty()) {
    // The trace carries what happened; the summary carries the ground-truth
    // totals the analysis reconciles against (makespan, per-job JCTs).
    obs::analysis::RunTotals totals;
    totals.makespan_sec = summary.makespan;
    totals.jobs.reserve(summary.jobs.size());
    for (const auto& outcome : summary.jobs)
      totals.jobs.push_back(obs::analysis::RunTotals::JobOutcome{
          static_cast<std::uint32_t>(outcome.job), outcome.submit_time,
          outcome.finish_time});
    const auto analysis =
        obs::analysis::analyze(obs::Tracer::instance().snapshot(), &totals);
    if (!obs::analysis::write_report_files(
            analysis, obs::MetricsRegistry::instance().snapshot_json(), report_dir)) {
      std::fprintf(stderr, "%s: cannot write report to %s\n", argv[0], report_dir.c_str());
      return 1;
    }
    std::printf("run report          %zu events -> %s/report.md\n", analysis.event_count,
                report_dir.c_str());
  }
  return 0;
}
