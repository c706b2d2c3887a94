// Online statistics used by the scheduler and the experiment harness.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

namespace harmony {

// Sliding-window mean over the last N samples, in a fixed ring: nothing is
// allocated. add() folds the new sample into the sum before it subtracts the
// evicted one.
template <std::size_t N>
class WindowedAverage {
  static_assert(N > 0);

 public:
  void add(double x) noexcept {
    sum_ += x;
    if (size_ < N) {
      ring_[size_++] = x;
      return;
    }
    sum_ -= ring_[oldest_];
    ring_[oldest_] = x;
    oldest_ = oldest_ + 1 == N ? 0 : oldest_ + 1;
  }

  std::size_t size() const noexcept { return size_; }
  double mean() const noexcept {
    return size_ == 0 ? 0.0 : sum_ / static_cast<double>(size_);
  }

 private:
  std::array<double, N> ring_{};
  std::size_t size_ = 0;
  std::size_t oldest_ = 0;  // ring slot of the oldest sample once full
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
  double sum() const noexcept { return sum_; }
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
