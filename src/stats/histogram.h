// Fixed-width-bin histogram for timing distributions (examples and reports).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace tsc::stats {

/// Equal-width histogram over [lo, hi]; values outside are clamped to the
/// edge bins so no observation is silently dropped.
class Histogram {
 public:
  /// Precondition: bins >= 1, lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  [[nodiscard]] std::size_t count(std::size_t bin) const {
    return counts_.at(bin);
  }
  [[nodiscard]] std::size_t total() const { return total_; }
  /// Center value of a bin.
  [[nodiscard]] double bin_center(std::size_t bin) const;

  /// ASCII rendering, one line per bin: "[lo,hi) count ####".
  [[nodiscard]] std::string render(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace tsc::stats
