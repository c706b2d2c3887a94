#include "sim/resource.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace harmony::sim {

FifoResource::FifoResource(Simulator& sim) : sim_(sim) {}

void FifoResource::submit(double duration, DoneFn on_done) {
  if (duration < 0.0) throw std::invalid_argument("FifoResource: negative duration");
  pending_.push_back(Pending{duration, std::move(on_done)});
  if (pending_.size() == 1) start_next();
}

double FifoResource::work_served() const noexcept {
  return busy_accum_ + (pending_.empty() ? 0.0 : sim_.now() - busy_since_);
}

void FifoResource::start_next() {
  if (pending_.empty()) return;
  busy_since_ = sim_.now();
  sim_.schedule_in(pending_.front().duration, [this] { finish(); });
}

void FifoResource::finish() {
  busy_accum_ += sim_.now() - busy_since_;
  DoneFn done = std::move(pending_.front().on_done);
  pending_.pop_front();
  // Start the successor before the completion callback so that a callback
  // which immediately resubmits observes consistent FIFO order.
  start_next();
  if (done) done();
}

SharedResource::SharedResource(Simulator& sim, double capacity, double interference)
    : sim_(sim), capacity_(capacity), interference_(interference) {
  if (capacity <= 0.0) throw std::invalid_argument("SharedResource: capacity must be > 0");
  if (interference < 0.0) throw std::invalid_argument("SharedResource: negative interference");
}

double SharedResource::per_task_rate() const noexcept {
  const auto n = static_cast<double>(tasks_.size());
  if (tasks_.empty()) return 0.0;
  return capacity_ / n / (1.0 + interference_ * (n - 1.0));
}

void SharedResource::submit(double work, DoneFn on_done) {
  if (work < 0.0) throw std::invalid_argument("SharedResource: negative work");
  settle_and_reschedule();  // account elapsed progress before membership change
  tasks_.push_back(Task{work, std::move(on_done)});
  settle_and_reschedule();
}

void SharedResource::settle_and_reschedule() {
  const double now = sim_.now();
  const double rate = per_task_rate();
  const double elapsed = now - last_settle_;
  if (elapsed > 0.0 && !tasks_.empty()) {
    for (Task& task : tasks_) {
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
  for (const Task& task : tasks_) min_remaining = std::min(min_remaining, task.remaining);
  const double new_rate = per_task_rate();
  const double dt = min_remaining / new_rate;

  completion_event_ = sim_.schedule_in(dt, [this] {
    completion_event_ = kInvalidEvent;
    const double now = sim_.now();
    const double rate = per_task_rate();
    const double elapsed = now - last_settle_;
    std::vector<DoneFn> finished;
    std::size_t kept = 0;
    for (Task& task : tasks_) {
      const double served = std::min(task.remaining, rate * elapsed);
      task.remaining -= served;
      work_done_ += served;
      // Tolerance absorbs floating-point drift in the rate arithmetic.
      if (task.remaining <= 1e-9)
        finished.push_back(std::move(task.on_done));
      else
        tasks_[kept++] = std::move(task);
    }
    tasks_.resize(kept);
    last_settle_ = now;
    settle_and_reschedule();
    for (auto& done : finished)
      if (done) done();
  });
}

}  // namespace harmony::sim
