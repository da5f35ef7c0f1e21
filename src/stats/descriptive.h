// Descriptive statistics over execution-time samples.
//
// All functions take std::span<const double> (callers convert cycle counts
// once) and are pure.  Quantile uses the inclusive linear-interpolation
// definition (type 7, the R/NumPy default).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace tsc::stats {

/// Arithmetic mean.  Precondition: !xs.empty().
[[nodiscard]] double mean(std::span<const double> xs);

/// Unbiased sample variance (divides by n-1).  Precondition: xs.size() >= 2.
[[nodiscard]] double variance(std::span<const double> xs);

/// Unbiased sample standard deviation.  Precondition: xs.size() >= 2.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Smallest element.  Precondition: !xs.empty().
[[nodiscard]] double min(std::span<const double> xs);

/// Largest element.  Precondition: !xs.empty().
[[nodiscard]] double max(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0,1].  Precondition: !xs.empty().
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Median (quantile 0.5).
[[nodiscard]] double median(std::span<const double> xs);

/// Sample autocorrelation at the given lag (0 < lag < n), using the
/// standard biased estimator r_k = c_k / c_0 as consumed by Ljung-Box.
[[nodiscard]] double autocorrelation(std::span<const double> xs,
                                     std::size_t lag);

/// Streaming moment accumulator for execution-time samples.
///
/// Keeps raw moment sums (n, sum x, sum x^2) plus min/max, so two
/// accumulators built over disjoint sample subsets can be combined with
/// merge() without re-scanning the concatenated samples.  Cycle counts are
/// integer-valued doubles, so the sums are exact (and the merge therefore
/// associative and commutative bit-for-bit) as long as sum x^2 stays below
/// 2^53 - comfortably beyond any campaign this library runs.  Quantiles
/// need the full sample and are out of scope; use summarize() for those.
class Descriptive {
 public:
  void add(double x) {
    n_ += 1;
    sum_ += x;
    sum_sq_ += x * x;
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
  }

  /// Fold another accumulator into this one.
  void merge(const Descriptive& other) {
    if (other.n_ == 0) return;
    if (n_ == 0 || other.min_ < min_) min_ = other.min_;
    if (n_ == 0 || other.max_ > max_) max_ = other.max_;
    n_ += other.n_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Precondition: count() >= 1.
  [[nodiscard]] double mean() const { return sum_ / static_cast<double>(n_); }

  /// Unbiased sample variance (divides by n-1), clamped at 0 against the
  /// tiny negative values the moment formula can produce for near-constant
  /// samples.  Returns 0 for fewer than two samples (a single timing
  /// carries no spread information; callers like the JSON reporters must
  /// stay total).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

  /// Precondition: count() >= 1.
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Full five-number-style summary for experiment reports.
struct Summary {
  std::size_t n = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double p25 = 0;
  double median = 0;
  double p75 = 0;
  double p99 = 0;
  double max = 0;
};

/// Compute a Summary.  Precondition: xs.size() >= 2.
[[nodiscard]] Summary summarize(std::span<const double> xs);

}  // namespace tsc::stats
