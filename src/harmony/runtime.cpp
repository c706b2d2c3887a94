#include "harmony/runtime.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ps/partition.h"

namespace harmony::core {

// LocalRuntime is the real threaded runtime, so wall-clock timing is the
// measurement, not a reproducibility leak.
using Clock = std::chrono::steady_clock;  // lint: allow-nondeterminism

namespace {

// Naive mode's lane widths: this many COMP and COMM subtasks may run at once
// per machine, contending instead of taking turns (Harmony mode keeps the
// SubtaskExecutor defaults).
constexpr std::size_t kNaiveCpuSlots = 4;
constexpr std::size_t kNaiveNetSlots = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

struct LocalRuntime::JobRun {
  JobId id = kNoJob;
  RuntimeJobConfig config;
  std::unique_ptr<ps::PsSystem> ps;
  RuntimeJobResult result;

  Clock::time_point job_start;
  Clock::time_point phase_start;
  double iter_trace_start_us = 0.0;  // wall-domain iteration span start
  double comp_accum = 0.0;
  double comm_accum = 0.0;
  double iter_comp = 0.0;
  double iter_comm = 0.0;

  // Pause protocol state, guarded by the runtime mutex.
  bool pause_requested = false;
  bool paused = false;
  bool finished = false;

  // Live mirrors of the result fields another thread may poll mid-run via
  // progress(); `result` itself is only stable once the job is quiescent.
  std::atomic<std::size_t> epochs_live{0};
  std::atomic<std::size_t> restarts_live{0};
  std::atomic<bool> failed_live{false};

  // Fault-tolerance state.
  std::atomic<bool> fail_next{false};   // next COMP throws (injection)
  std::atomic<bool> failure_seen{false};  // a subtask of this job threw
  std::string failure_message;          // guarded by the runtime mutex
  std::size_t last_checkpoint_epoch = 0;
  bool has_checkpoint = false;
};

LocalRuntime::LocalRuntime(Params params) : params_(params) {
  if (params_.machines == 0) throw std::invalid_argument("LocalRuntime: zero machines");
  SubtaskExecutor::Params exec_params;
  if (params_.mode == ExecutionMode::kNaive) {
    exec_params.cpu_slots = kNaiveCpuSlots;
    exec_params.network_slots = kNaiveNetSlots;
  }
  for (std::size_t m = 0; m < params_.machines; ++m)
    executors_.push_back(std::make_unique<SubtaskExecutor>(exec_params));

  std::filesystem::path dir = params_.checkpoint_dir.empty()
                                  ? std::filesystem::temp_directory_path() / "harmony-ckpt"
                                  : std::filesystem::path(params_.checkpoint_dir);
  checkpoints_ = std::make_unique<CheckpointStore>(dir);

  // A failing subtask must not crash the shared runtime; record the failure
  // against its job and let the iteration boundary decide restart-or-fail.
  for (auto& e : executors_) {
    e->set_failure_handler([this](JobId job, const std::string& message) {
      if (job >= jobs_.size()) return;
      JobRun& jr = *jobs_[job];
      jr.failure_seen.store(true, std::memory_order_relaxed);
      common::MutexLock lock(mu_);
      if (jr.failure_message.empty()) jr.failure_message = message;
    });
  }
}

LocalRuntime::~LocalRuntime() {
  // A job resumed after run() returned may still be iterating; its callbacks
  // reference JobRun state, so quiesce before members start destructing.
  wait_idle();
  for (auto& e : executors_) e->drain();
}

void LocalRuntime::wait_idle() {
  common::MutexLock lock(mu_);
  while (active_jobs_ != 0) all_done_cv_.wait(mu_);
}

void LocalRuntime::inject_failure(JobId job) {
  jobs_.at(job)->fail_next.store(true, std::memory_order_relaxed);
}

JobId LocalRuntime::submit(RuntimeJobConfig config) {
  if (!config.app) throw std::invalid_argument("LocalRuntime: null app");
  common::MutexLock lock(mu_);
  if (started_) throw std::logic_error("LocalRuntime: submit after run()");
  auto jr = std::make_unique<JobRun>();
  jr->id = static_cast<JobId>(jobs_.size());
  jr->config = std::move(config);
  ps::PsConfig ps_config;
  ps_config.nic_bytes_per_sec = params_.nic_bytes_per_sec;
  ps_config.batches_per_epoch = jr->config.batches_per_epoch;
  jr->ps = std::make_unique<ps::PsSystem>(jr->config.app, params_.machines, ps_config);
  jr->result.id = jr->id;
  synchronizer_.register_job(jr->id, params_.machines);
  jobs_.push_back(std::move(jr));
  return jobs_.back()->id;
}

void LocalRuntime::run() {
  {
    common::MutexLock lock(mu_);
    if (started_) throw std::logic_error("LocalRuntime: run() called twice");
    started_ = true;
    active_jobs_ = jobs_.size();
  }
  for (auto& jr : jobs_) {
    jr->ps->init_model();
    jr->job_start = Clock::now();
    start_iteration(*jr);
  }
  common::MutexLock lock(mu_);
  while (active_jobs_ != 0) all_done_cv_.wait(mu_);
}

void LocalRuntime::submit_phase(JobRun& jr, SubtaskType type,
                                std::function<void(std::size_t)> body,
                                std::function<void()> next) {
  synchronizer_.begin_step(jr.id, std::move(next));
  for (std::size_t m = 0; m < executors_.size(); ++m) {
    Subtask st;
    st.job = jr.id;
    st.type = type;
    st.body = [body, m] { body(m); };
    st.on_complete = [this, id = jr.id] { synchronizer_.arrive(id); };
    executors_[m]->submit(std::move(st));
  }
}

void LocalRuntime::start_iteration(JobRun& jr) {
  jr.iter_comm = 0.0;
  jr.iter_comp = 0.0;
  if (obs::Tracer::enabled()) jr.iter_trace_start_us = obs::Tracer::wall_now_us();
  phase_pull(jr);
}

void LocalRuntime::phase_pull(JobRun& jr) {
  jr.phase_start = Clock::now();
  submit_phase(
      jr, SubtaskType::kComm,
      [&jr](std::size_t m) {
        obs::WallSpan span(obs::EventKind::kSubtaskPull, jr.id, obs::kNoEntity,
                           static_cast<std::uint32_t>(m));
        jr.ps->worker(m).pull_transfer();
      },
      [this, &jr] { phase_comp(jr); });
}

void LocalRuntime::phase_comp(JobRun& jr) {
  jr.iter_comm += seconds_since(jr.phase_start);
  jr.phase_start = Clock::now();
  submit_phase(
      jr, SubtaskType::kComp,
      [&jr](std::size_t m) {
        obs::WallSpan span(obs::EventKind::kSubtaskComp, jr.id, obs::kNoEntity,
                           static_cast<std::uint32_t>(m));
        // Injected fault: one worker's COMP throws (caught by the executor).
        if (m == 0 && jr.fail_next.exchange(false))
          throw std::runtime_error("injected COMP failure");
        // Deserialization and serialization are CPU work and run in the CPU
        // lane by design (§IV-A: the paper moves them out of COMM subtasks).
        auto& w = jr.ps->worker(m);
        w.pull_deserialize();
        w.compute();
        w.push_serialize();
      },
      [this, &jr] { phase_push(jr); });
}

void LocalRuntime::phase_push(JobRun& jr) {
  jr.iter_comp = seconds_since(jr.phase_start);
  jr.comp_accum += jr.iter_comp;
  jr.phase_start = Clock::now();
  submit_phase(
      jr, SubtaskType::kComm,
      [&jr](std::size_t m) {
        obs::WallSpan span(obs::EventKind::kSubtaskPush, jr.id, obs::kNoEntity,
                           static_cast<std::uint32_t>(m));
        jr.ps->worker(m).push_transfer();
      },
      [this, &jr] { on_iteration_end(jr); });
}

void LocalRuntime::on_iteration_end(JobRun& jr) {
  jr.iter_comm += seconds_since(jr.phase_start);
  jr.comm_accum += jr.iter_comm;
  ++jr.result.iterations;
  obs::MetricsRegistry::instance().counter("runtime.iterations").add();
  if (obs::Tracer::enabled()) {
    const double end_us = obs::Tracer::wall_now_us();
    obs::Tracer::complete(obs::EventKind::kIteration, obs::ClockDomain::kWall,
                          jr.iter_trace_start_us, end_us - jr.iter_trace_start_us, jr.id);
  }

  // A subtask of this iteration threw. Restart from the last epoch
  // checkpoint if the budget allows; otherwise the job fails (other
  // co-located jobs keep running either way).
  if (jr.failure_seen.exchange(false)) {
    if (try_restart(jr)) {
      start_iteration(jr);
    } else {
      jr.result.failed = true;
      jr.failed_live.store(true, std::memory_order_relaxed);
      {
        common::MutexLock lock(mu_);
        jr.result.failure_message = jr.failure_message;
      }
      finish_job(jr, /*by_loss=*/false);
    }
    return;
  }

  {
    // The profiler is shared across jobs whose drivers run on different
    // executor threads.
    common::MutexLock lock(mu_);
    profiler_.record(jr.id, executors_.size(), jr.iter_comp, jr.iter_comm);
  }

  const bool epoch_end = jr.result.iterations % jr.config.batches_per_epoch == 0;
  if (epoch_end) {
    ++jr.result.epochs;
    jr.epochs_live.store(jr.result.epochs, std::memory_order_relaxed);
    const double loss = jr.ps->loss();
    jr.result.epoch_losses.push_back(loss);
    jr.result.final_loss = loss;
    if (jr.config.max_restarts > 0) {
      // Standard per-epoch checkpointing (§VI fault tolerance).
      {
        obs::WallSpan span(obs::EventKind::kCheckpoint, jr.id);
        checkpoints_->save(jr.id, jr.ps->full_model());
      }
      obs::MetricsRegistry::instance().counter("runtime.checkpoints").add();
      jr.last_checkpoint_epoch = jr.result.epochs;
      jr.has_checkpoint = true;
    }
    if (loss <= jr.config.target_loss) {
      finish_job(jr, /*by_loss=*/true);
      return;
    }
    if (jr.result.epochs >= jr.config.max_epochs) {
      finish_job(jr, /*by_loss=*/false);
      return;
    }
  }

  // Pause at the iteration boundary, after PUSH, exactly where migration
  // happens in the paper (local subtask state is empty here).
  {
    common::MutexLock lock(mu_);
    if (jr.pause_requested) {
      lock.unlock();
      {
        obs::WallSpan span(obs::EventKind::kCheckpoint, jr.id);
        checkpoints_->save(jr.id, jr.ps->full_model());
      }
      obs::MetricsRegistry::instance().counter("runtime.checkpoints").add();
      lock.lock();
      jr.pause_requested = false;
      jr.paused = true;
      --active_jobs_;
      all_done_cv_.notify_all();
      return;
    }
  }
  start_iteration(jr);
}

bool LocalRuntime::try_restart(JobRun& jr) {
  if (jr.result.restarts >= jr.config.max_restarts) return false;
  ++jr.result.restarts;
  jr.restarts_live.store(jr.result.restarts, std::memory_order_relaxed);
  obs::MetricsRegistry::instance().counter("runtime.restarts").add();
  if (jr.has_checkpoint) {
    const auto model = checkpoints_->load(jr.id);
    for (std::size_t s = 0; s < jr.ps->num_shards(); ++s) {
      const ps::Range r = jr.ps->shard(s).range();
      jr.ps->shard(s).load(std::span<const double>(model).subspan(r.begin, r.size()));
    }
    // Rewind progress to the checkpointed epoch; lost iterations re-run.
    jr.result.iterations = jr.last_checkpoint_epoch * jr.config.batches_per_epoch;
    jr.result.epochs = jr.last_checkpoint_epoch;
  } else {
    // No checkpoint yet: restart from scratch.
    jr.ps->init_model();
    jr.result.iterations = 0;
    jr.result.epochs = 0;
    jr.result.epoch_losses.clear();
  }
  jr.epochs_live.store(jr.result.epochs, std::memory_order_relaxed);
  return true;
}

void LocalRuntime::finish_job(JobRun& jr, bool by_loss) {
  jr.result.converged_by_loss = by_loss;
  jr.result.wall_seconds = seconds_since(jr.job_start);
  const auto iters = static_cast<double>(jr.result.iterations);
  jr.result.avg_comp_seconds = iters > 0 ? jr.comp_accum / iters : 0.0;
  jr.result.avg_comm_seconds = iters > 0 ? jr.comm_accum / iters : 0.0;
  common::MutexLock lock(mu_);
  jr.finished = true;
  --active_jobs_;
  all_done_cv_.notify_all();
}

void LocalRuntime::pause(JobId job) {
  JobRun& jr = *jobs_.at(job);
  common::MutexLock lock(mu_);
  if (jr.finished || jr.paused) return;
  jr.pause_requested = true;
  while (!jr.paused && !jr.finished) all_done_cv_.wait(mu_);
}

void LocalRuntime::resume(JobId job) {
  JobRun& jr = *jobs_.at(job);
  {
    common::MutexLock lock(mu_);
    if (!jr.paused) throw std::logic_error("LocalRuntime: resuming a job that is not paused");
    jr.paused = false;
    ++active_jobs_;
  }
  // Restore the checkpointed model into the server shards, then re-enter the
  // iteration loop (input data is immutable and still in place).
  const auto model = checkpoints_->load(job);
  for (std::size_t s = 0; s < jr.ps->num_shards(); ++s) {
    const ps::Range r = jr.ps->shard(s).range();
    jr.ps->shard(s).load(std::span<const double>(model).subspan(r.begin, r.size()));
  }
  start_iteration(jr);
}

LocalRuntime::JobProgress LocalRuntime::progress(JobId job) const {
  const JobRun& jr = *jobs_.at(job);
  JobProgress p;
  p.epochs = jr.epochs_live.load(std::memory_order_relaxed);
  p.restarts = jr.restarts_live.load(std::memory_order_relaxed);
  p.failed = jr.failed_live.load(std::memory_order_relaxed);
  return p;
}

const RuntimeJobResult& LocalRuntime::result(JobId job) const {
  const JobRun& jr = *jobs_.at(job);
  return jr.result;
}

std::vector<double> LocalRuntime::final_model(JobId job) const {
  return jobs_.at(job)->ps->full_model();
}

}  // namespace harmony::core
