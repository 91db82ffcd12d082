#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dcs {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::vector<double> xs, double p) {
  DCS_REQUIRE(!xs.empty(), "percentile of empty range");
  DCS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

}  // namespace dcs
