// Online statistics used by the profiler and the experiment harness.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <deque>

namespace harmony {

// Exponentially-weighted moving average. The paper's profiler keeps subtask
// times "updated using moving averages" (§IV-B1); this is that primitive.
class MovingAverage {
 public:
  // `alpha` is the weight of a new sample; alpha=1 keeps only the last value.
  explicit MovingAverage(double alpha = 0.3) : alpha_(alpha) {
    assert(alpha > 0.0 && alpha <= 1.0);
  }

  void add(double x) noexcept {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ += alpha_ * (x - value_);
    }
    ++count_;
  }

  bool initialized() const noexcept { return initialized_; }
  double value() const noexcept { return value_; }
  std::size_t count() const noexcept { return count_; }

  void reset() noexcept {
    initialized_ = false;
    value_ = 0.0;
    count_ = 0;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
  std::size_t count_ = 0;
};

// Fixed-capacity sliding-window mean; used where a bounded memory footprint
// matters (per-subtask traces on workers).
class WindowedAverage {
 public:
  explicit WindowedAverage(std::size_t capacity) : capacity_(capacity) { assert(capacity > 0); }

  void add(double x) {
    window_.push_back(x);
    sum_ += x;
    if (window_.size() > capacity_) {
      sum_ -= window_.front();
      window_.pop_front();
    }
  }

  std::size_t size() const noexcept { return window_.size(); }
  bool empty() const noexcept { return window_.empty(); }
  double mean() const noexcept {
    return window_.empty() ? 0.0 : sum_ / static_cast<double>(window_.size());
  }

 private:
  std::size_t capacity_;
  std::deque<double> window_;
  double sum_ = 0.0;
};

// Count, sum, min and max of a stream, without keeping its samples. mean()
// divides a left fold from 0.0 in insertion order by the count, so it is bit
// for bit SampleSet::mean() over the same samples; min() and max() keep the
// first extreme seen, as std::min_element / std::max_element do.
class RunningStats {
 public:
  void add(double x) noexcept {
    if (count_ == 0 || x < min_) min_ = x;
    if (count_ == 0 || max_ < x) max_ = x;
    sum_ += x;
    ++count_;
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const noexcept { return min_; }  // 0 when empty, like SampleSet
  double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Relative error |a-b| / max(|b|, eps); the paper's 5 % similarity and benefit
// thresholds are expressed with this. Inline: the regrouper's pair scan calls
// it once per idle-job pair.
inline double relative_error(double actual, double reference, double eps = 1e-12) noexcept {
  return std::abs(actual - reference) / std::max(std::abs(reference), eps);
}

}  // namespace harmony
