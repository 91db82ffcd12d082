// Small descriptive-statistics helpers for experiment summaries.
#pragma once

#include <cstddef>
#include <vector>

namespace dcs {

/// Streaming accumulator (Welford) for mean / variance / extrema.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Linear-interpolation percentile, p in [0, 100]. Requires non-empty input.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

}  // namespace dcs
