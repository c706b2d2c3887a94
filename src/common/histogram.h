// Sample collections with quantile/CDF reporting, used to print the paper's
// cumulative-distribution figures (Fig. 9, Fig. 12).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace harmony {

// Stores raw samples; quantiles are computed on demand. Sizes run from a few
// scheduling decisions to the ~400k decision latencies of a 10^7 s service
// run, so a quantile selects its two order statistics (O(n)) rather than
// sorting.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  double mean() const;
  double min() const;
  double max() const;
  // Linear-interpolated quantile, q in [0, 1]: select_quantile over a copy.
  double quantile(double q) const;

  // Fraction of samples <= x (empirical CDF).
  double cdf_at(double x) const;

  const std::vector<double>& samples() const noexcept { return samples_; }

  // Renders "x<TAB>F(x)" rows at `points` evenly spaced x positions spanning
  // [min, max]; the format the bench binaries print for CDF figures.
  std::string cdf_table(std::size_t points = 20) const;

 private:
  std::vector<double> samples_;
};

// Linear-interpolated quantile of `samples`, q in [0, 1]: the order
// statistics at floor and ceil of q·(n − 1), interpolated exactly as over a
// sorted copy. Reorders `samples`; 0 when empty.
double select_quantile(std::span<double> samples, double q);

// Equal-width bin histogram for utilization traces.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t total() const noexcept { return total_; }
  const std::vector<std::size_t>& bins() const noexcept { return counts_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  double top_;  // largest sample kept in range: the double just below hi_
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace harmony
