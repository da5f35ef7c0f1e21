#include "stats/descriptive.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

namespace tsc::stats {

double mean(std::span<const double> xs) {
  assert(!xs.empty());
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  assert(xs.size() >= 2);
  const double m = mean(xs);
  double acc = 0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  assert(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  assert(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
  assert(!xs.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  assert(lag > 0 && lag < xs.size());
  const double m = mean(xs);
  double num = 0;
  double den = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    den += (xs[i] - m) * (xs[i] - m);
    if (i + lag < xs.size()) num += (xs[i] - m) * (xs[i + lag] - m);
  }
  if (den == 0.0) return 0.0;  // constant series: define r_k = 0
  return num / den;
}

double Descriptive::variance() const {
  if (n_ < 2) return 0.0;
  const double m = mean();
  const double ss = sum_sq_ - sum_ * m;
  return std::max(0.0, ss / static_cast<double>(n_ - 1));
}

double Descriptive::stddev() const { return std::sqrt(variance()); }

Summary summarize(std::span<const double> xs) {
  assert(xs.size() >= 2);
  Summary s;
  s.n = xs.size();
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = min(xs);
  s.p25 = quantile(xs, 0.25);
  s.median = median(xs);
  s.p75 = quantile(xs, 0.75);
  s.p99 = quantile(xs, 0.99);
  s.max = max(xs);
  return s;
}

}  // namespace tsc::stats
