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
// Both track busy time and completed work so the harness can report
// utilization exactly as the paper does (fraction of time the resource is in
// use, Eq. 3).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/sorted_view.h"
#include "sim/simulator.h"
#include "sim/small_fn.h"

namespace harmony::sim {

using TaskId = std::uint64_t;

// Serves queued tasks one at a time in submission order.
class FifoResource {
 public:
  // Inline-storage continuation: submitting a task costs no heap allocation.
  using DoneFn = SmallFn<48>;

  FifoResource(Simulator& sim, std::string name);

  // Enqueues a task whose service time is `duration` seconds once it reaches
  // the head of the queue. `on_done` fires at completion.
  void submit(double duration, DoneFn on_done);

  bool busy() const noexcept { return running_; }

  // Total time with a task in service since construction (utilization
  // numerator).
  double busy_time() const noexcept;

  const std::string& name() const noexcept { return name_; }

 private:
  struct Pending {
    double duration = 0.0;
    DoneFn on_done;
  };

  void start_next();

  Simulator& sim_;
  std::string name_;
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
class SharedResource {
 public:
  using DoneFn = SmallFn<48>;

  SharedResource(Simulator& sim, std::string name, double capacity,
                 double interference = 0.0);

  // Submits `work` units (e.g. core-seconds, bytes); `on_done` fires when the
  // task's work is fully served.
  TaskId submit(double work, DoneFn on_done);

  std::size_t active() const noexcept { return tasks_.size(); }
  double capacity() const noexcept { return capacity_; }
  double busy_time() const noexcept;
  double work_completed() const noexcept { return work_done_; }

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
  std::string name_;
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
