// Simulated resources.
//
// Two service disciplines model the two scheduling regimes the paper compares:
//
//  * FifoResource — one task at a time, in order. This is how Harmony's
//    subtask executor drives a resource: exactly one COMP subtask occupies the
//    CPU, so a task's service time equals its profiled duration (predictable).
//
//  * SharedResource — processor sharing with an interference penalty. This is
//    what naive co-location does: concurrent tasks split the capacity and
//    additionally slow each other down (cache/connection contention), which is
//    why the paper's naive baseline shows high variance and can be slower than
//    isolated execution (§II-B, Fig. 4/5a).
//
// Both derive from Resource, so a simulated group holds one CPU lane and one
// network lane whichever discipline backs them, and both report the work
// they served so the harness can report utilization exactly as the paper
// does (fraction of time the resource is in use, Eq. 3).
#pragma once

#include <cstdint>
#include <deque>

#include "common/sorted_view.h"
#include "sim/simulator.h"
#include "sim/small_fn.h"

namespace harmony::sim {

using TaskId = std::uint64_t;

// A lane that serves submitted work: what a simulated group runs its
// subtasks on, whichever service discipline backs it.
class Resource {
 public:
  // Inline-storage continuation: submitting a task costs no heap allocation.
  using DoneFn = SmallFn<48>;

  // Pending completions capture the resource's address.
  Resource() = default;
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  virtual ~Resource() = default;

  // Enqueues `work` units (seconds at full rate); `on_done` fires once the
  // work has been served.
  virtual void submit(double work, DoneFn on_done) = 0;

  // Work served since construction (the utilization numerator).
  virtual double work_served() const noexcept = 0;
};

// Serves queued tasks one at a time in submission order.
class FifoResource final : public Resource {
 public:
  explicit FifoResource(Simulator& sim);

  // Enqueues a task whose service time is `duration` seconds once it reaches
  // the head of the queue. `on_done` fires at completion.
  void submit(double duration, DoneFn on_done) override;

  // Total time with a task in service since construction.
  double busy_time() const noexcept;

  // One task at a time at full rate: the work served is the busy time.
  double work_served() const noexcept override { return busy_time(); }

 private:
  struct Pending {
    double duration = 0.0;
    DoneFn on_done;
  };

  void start_next();

  Simulator& sim_;
  std::deque<Pending> pending_;
  bool running_ = false;
  double busy_accum_ = 0.0;
  double busy_since_ = 0.0;
};

// Processor-sharing resource with interference.
//
// With n concurrent tasks each receives rate
//     capacity / n / (1 + interference * (n - 1))
// so total throughput degrades below capacity as soon as tasks contend —
// the super-linear slowdown naive co-location exhibits.
class SharedResource final : public Resource {
 public:
  SharedResource(Simulator& sim, double capacity, double interference = 0.0);

  // Submits `work` units (e.g. core-seconds, bytes); `on_done` fires when the
  // task's work is fully served.
  void submit(double work, DoneFn on_done) override;

  double busy_time() const noexcept;
  // Work served as of the last settle (a submit or a completion).
  double work_served() const noexcept override { return work_done_; }

 private:
  struct Task {
    double remaining = 0.0;
    DoneFn on_done;
  };

  // Advances all remaining-work counters to `now`, then reschedules the next
  // completion event. Called whenever membership changes.
  void settle_and_reschedule();
  double per_task_rate() const noexcept;

  Simulator& sim_;
  double capacity_;
  double interference_;

  // Ordered by TaskId (= submission order) so the settle loop's float
  // accumulation and the completion callbacks fire in a deterministic order
  // regardless of hash-table bucket layout.
  common::ordered_map<TaskId, Task> tasks_;
  TaskId next_id_ = 1;

  double last_settle_ = 0.0;
  EventId completion_event_ = kInvalidEvent;

  double busy_accum_ = 0.0;
  double busy_since_ = 0.0;
  double work_done_ = 0.0;
};

}  // namespace harmony::sim
