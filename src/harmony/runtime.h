// LocalRuntime: the in-process, multi-threaded Harmony runtime.
//
// It instantiates the paper's execution stack at laptop scale: a set of
// "machines" (each a SubtaskExecutor plus a bandwidth-throttled NIC), a PS
// system per job, the master-side SubtaskSynchronizer, and the online
// Profiler. Every job iterates
//
//     COMM(pull transfer) -> barrier -> COMP(deserialize+compute+serialize)
//     -> barrier -> COMM(push transfer) -> barrier -> next iteration
//
// with each phase's work enqueued in the right executor lane on every
// machine. In Harmony mode one COMP subtask runs per machine at a time, so
// co-located jobs interleave instead of contending; in Naive mode the lanes
// are widened and jobs stomp on each other — the Gandiva-style baseline.
//
// The runtime supports pause/resume with real model checkpointing at
// iteration boundaries, mirroring the migration mechanics of §IV-B4.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "harmony/checkpoint.h"
#include "harmony/executor.h"
#include "harmony/job.h"
#include "harmony/profiler.h"
#include "harmony/synchronizer.h"
#include "ml/app.h"
#include "ps/ps_system.h"

namespace harmony::core {

enum class ExecutionMode { kHarmony, kNaive };

struct RuntimeJobConfig {
  std::shared_ptr<ml::MlApp> app;
  // Stop after this many epochs, or earlier if loss <= target_loss.
  std::size_t max_epochs = 1;
  double target_loss = -std::numeric_limits<double>::infinity();
  std::size_t batches_per_epoch = 1;
  // Fault tolerance (§VI): when > 0, the runtime checkpoints the model every
  // epoch and a failed job restarts from its last checkpoint up to this many
  // times before being declared failed.
  std::size_t max_restarts = 0;
};

struct RuntimeJobResult {
  JobId id = kNoJob;
  std::size_t iterations = 0;
  std::size_t epochs = 0;
  double final_loss = 0.0;
  std::vector<double> epoch_losses;
  double wall_seconds = 0.0;
  // Average per-iteration phase durations (whole-group wall time).
  double avg_comp_seconds = 0.0;
  double avg_comm_seconds = 0.0;
  bool converged_by_loss = false;
  // Fault-tolerance outcome.
  std::size_t restarts = 0;
  bool failed = false;
  std::string failure_message;
};

class LocalRuntime {
 public:
  struct Params {
    std::size_t machines = 2;
    double nic_bytes_per_sec = 0.0;  // <= 0: unthrottled
    ExecutionMode mode = ExecutionMode::kHarmony;
    // Directory for pause/migrate checkpoints; empty = "harmony-ckpt" under
    // the process's temp directory.
    std::string checkpoint_dir;
  };

  explicit LocalRuntime(Params params);
  ~LocalRuntime();

  LocalRuntime(const LocalRuntime&) = delete;
  LocalRuntime& operator=(const LocalRuntime&) = delete;

  // Registers a job; all jobs must be submitted before run() starts.
  JobId submit(RuntimeJobConfig config);

  // Starts every submitted job and blocks until all finish (or are paused and
  // later resumed to completion by another thread).
  void run();

  // Requests a pause at the next iteration boundary; blocks until the model
  // checkpoint is on disk. Must not be called from an executor thread.
  void pause(JobId job);

  // Restores the checkpoint and re-enters the iteration loop. If run() has
  // already returned (every other job finished while this one was paused),
  // follow up with wait_idle() to block until the resumed job completes.
  void resume(JobId job);

  // Blocks until no job is actively iterating (all finished or paused).
  void wait_idle();

  // Fault injection: the job's next COMP subtask throws. With
  // max_restarts > 0 the job restarts from its last epoch checkpoint;
  // otherwise it finishes with result().failed set. Other co-located jobs
  // are unaffected either way (§VI).
  void inject_failure(JobId job);

  // Thread-safe snapshot of a running job's progress. Unlike result(), this
  // is safe to poll from another thread while the job is actively iterating
  // (e.g. to wait for an epoch or a restart before injecting a failure).
  struct JobProgress {
    std::size_t epochs = 0;
    std::size_t restarts = 0;
    bool failed = false;
  };
  JobProgress progress(JobId job) const;

  // Stable only while the job is quiescent: after run()/wait_idle() returns
  // or while the job is paused. Poll progress() instead mid-run.
  const RuntimeJobResult& result(JobId job) const;
  const Profiler& profiler() const noexcept { return profiler_; }
  std::size_t machines() const noexcept { return executors_.size(); }

  // Gathers the job's current model from its server shards. Call between
  // iterations (after run() returns, or while the job is paused).
  std::vector<double> final_model(JobId job) const;

 private:
  struct JobRun;

  void start_iteration(JobRun& jr);
  void phase_pull(JobRun& jr);
  void phase_comp(JobRun& jr);
  void phase_push(JobRun& jr);
  void on_iteration_end(JobRun& jr);
  void finish_job(JobRun& jr, bool by_loss);
  // Restores the last epoch checkpoint after a caught failure; returns false
  // when the restart budget is exhausted (job then finishes as failed).
  bool try_restart(JobRun& jr);

  // Enqueues `body` for every machine in the lane for `type`, reporting each
  // completion to the synchronizer; `next` fires once after the barrier.
  void submit_phase(JobRun& jr, SubtaskType type,
                    std::function<void(std::size_t machine)> body,
                    std::function<void()> next);

  Params params_;
  std::vector<std::unique_ptr<SubtaskExecutor>> executors_;
  SubtaskSynchronizer synchronizer_;
  Profiler profiler_;
  std::unique_ptr<CheckpointStore> checkpoints_;

  std::vector<std::unique_ptr<JobRun>> jobs_;

  // mu_ guards the run lifecycle (active-job accounting, start latch) plus
  // the shared Profiler and each JobRun's pause-protocol fields; JobRun is
  // .cpp-private, so its guarded fields carry the contract in comments
  // rather than GUARDED_BY (the annotation cannot name this mutex there).
  common::Mutex mu_;
  common::CondVar all_done_cv_;
  std::size_t active_jobs_ GUARDED_BY(mu_) = 0;
  bool started_ GUARDED_BY(mu_) = false;
};

}  // namespace harmony::core
