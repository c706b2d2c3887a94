#include "sim/resource.h"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace harmony::sim {

FifoResource::FifoResource(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

void FifoResource::submit(double duration, DoneFn on_done) {
  if (duration < 0.0) throw std::invalid_argument("FifoResource: negative duration");
  pending_.push_back(Pending{duration, std::move(on_done)});
  if (!running_) start_next();
}

double FifoResource::busy_time() const noexcept {
  return busy_accum_ + (running_ ? sim_.now() - busy_since_ : 0.0);
}

void FifoResource::start_next() {
  assert(!running_);
  if (pending_.empty()) return;
  Pending task = std::move(pending_.front());
  pending_.pop_front();
  running_ = true;
  busy_since_ = sim_.now();
  sim_.schedule_in(task.duration, [this, done = std::move(task.on_done)]() mutable {
    busy_accum_ += sim_.now() - busy_since_;
    running_ = false;
    // Start the successor before the completion callback so that a callback
    // which immediately resubmits observes consistent FIFO order.
    start_next();
    if (done) done();
  });
}

SharedResource::SharedResource(Simulator& sim, std::string name, double capacity,
                               double interference)
    : sim_(sim), name_(std::move(name)), capacity_(capacity), interference_(interference) {
  if (capacity <= 0.0) throw std::invalid_argument("SharedResource: capacity must be > 0");
  if (interference < 0.0) throw std::invalid_argument("SharedResource: negative interference");
}

double SharedResource::per_task_rate() const noexcept {
  const auto n = static_cast<double>(tasks_.size());
  if (tasks_.empty()) return 0.0;
  return capacity_ / n / (1.0 + interference_ * (n - 1.0));
}

TaskId SharedResource::submit(double work, DoneFn on_done) {
  if (work < 0.0) throw std::invalid_argument("SharedResource: negative work");
  settle_and_reschedule();  // account elapsed progress before membership change
  if (tasks_.empty()) busy_since_ = sim_.now();
  const TaskId id = next_id_++;
  tasks_.emplace(id, Task{work, std::move(on_done)});
  settle_and_reschedule();
  return id;
}

void SharedResource::settle_and_reschedule() {
  const double now = sim_.now();
  const double rate = per_task_rate();
  const double elapsed = now - last_settle_;
  if (elapsed > 0.0 && !tasks_.empty()) {
    for (auto& [id, task] : tasks_) {
      const double served = std::min(task.remaining, rate * elapsed);
      task.remaining -= served;
      work_done_ += served;
    }
  }
  last_settle_ = now;

  if (completion_event_ != kInvalidEvent) {
    sim_.cancel(completion_event_);
    completion_event_ = kInvalidEvent;
  }
  if (tasks_.empty()) return;

  // Next completion: the task with least remaining work at the current rate.
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const auto& [id, task] : tasks_) min_remaining = std::min(min_remaining, task.remaining);
  const double new_rate = per_task_rate();
  const double dt = min_remaining / new_rate;

  completion_event_ = sim_.schedule_in(dt, [this] {
    completion_event_ = kInvalidEvent;
    const double now = sim_.now();
    const double rate = per_task_rate();
    const double elapsed = now - last_settle_;
    std::vector<DoneFn> finished;
    for (auto it = tasks_.begin(); it != tasks_.end();) {
      auto& task = it->second;
      const double served = std::min(task.remaining, rate * elapsed);
      task.remaining -= served;
      work_done_ += served;
      // Tolerance absorbs floating-point drift in the rate arithmetic.
      if (task.remaining <= 1e-9) {
        finished.push_back(std::move(task.on_done));
        it = tasks_.erase(it);
      } else {
        ++it;
      }
    }
    last_settle_ = now;
    if (tasks_.empty()) busy_accum_ += now - busy_since_;
    settle_and_reschedule();
    for (auto& done : finished)
      if (done) done();
  });
}

double SharedResource::busy_time() const noexcept {
  return busy_accum_ + (!tasks_.empty() ? sim_.now() - busy_since_ : 0.0);
}

}  // namespace harmony::sim
