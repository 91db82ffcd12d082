#include "serving/request_source.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "util/check.h"

namespace dcs::serving {
namespace {

/// PTRS needs a mean of at least 10; below it Knuth's product is cheap.
constexpr double kPtrsMinMean = 10.0;
/// Means are clamped here, so every count fits std::size_t.
constexpr double kMaxMean = 0x1.0p53;

/// Knuth's method: the number of uniforms whose running product stays
/// above exp(-mean). Costs mean + 1 uniforms.
std::size_t poisson_knuth(Rng& rng, double mean) noexcept {
  const double limit = std::exp(-mean);
  std::size_t k = 0;
  double product = 1.0;
  do {
    ++k;
    product *= rng.uniform();
  } while (product > limit);
  return k - 1;
}

/// log(k!) = log Gamma(k + 1) for integral k >= 0: the Stirling series of
/// log Gamma(x), accurate to a few ulp from x = 7 up, with smaller x
/// shifted up to 7 by the recursion Gamma(x + 1) = x Gamma(x). Not
/// std::lgamma, whose glibc version writes the global signgam, a race
/// between sweep worker threads.
double log_factorial(double k) noexcept {
  // B_2j / (2j (2j - 1)) for j = 1..10, the series' coefficients.
  static constexpr std::array<double, 10> kStirling = {
      1.0 / 12.0,        -1.0 / 360.0,       1.0 / 1260.0,
      -1.0 / 1680.0,     1.0 / 1188.0,       -691.0 / 360360.0,
      1.0 / 156.0,       -3617.0 / 122400.0, 43867.0 / 244188.0,
      -174611.0 / 125400.0};
  if (k < 2.0) return 0.0;
  double x = k + 1.0;
  double shifted = 1.0;  // the factors x, x + 1, ... skipped on the way to 7
  for (; x < 7.0; x += 1.0) shifted *= x;
  const double inv_x2 = 1.0 / (x * x);
  double series = kStirling.back();
  for (std::size_t j = kStirling.size() - 1; j-- > 0;) {
    series = series * inv_x2 + kStirling[j];
  }
  return series / x + 0.5 * std::log(2.0 * std::numbers::pi) +
         (x - 0.5) * std::log(x) - x - std::log(shifted);
}

/// Hörmann's PTRS transformed rejection ("The transformed rejection method
/// for generating Poisson random variables", 1993), valid for mean >= 10:
/// 1.1 to 1.3 tries of two uniforms each, whatever the mean.
std::size_t poisson_ptrs(Rng& rng, double mean) noexcept {
  const double log_mean = std::log(mean);
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = rng.uniform() - 0.5;
    const double v = 1.0 - rng.uniform();  // in (0, 1]
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    // Inside this box the hat lies under the pmf: accept outright.
    if (us >= 0.07 && v <= v_r) return static_cast<std::size_t>(k);
    // No mass below 0 or, to double precision, beyond twice the largest
    // mean; the bound keeps the cast below defined.
    if (k < 0.0 || k > 2.0 * kMaxMean || (us < 0.013 && v > us)) continue;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        -mean + k * log_mean - log_factorial(k)) {
      return static_cast<std::size_t>(k);
    }
  }
}

}  // namespace

std::size_t poisson_sample(Rng& rng, double mean) noexcept {
  if (!(mean > 0.0)) return 0;  // NaN or non-positive
  if (mean < kPtrsMinMean) return poisson_knuth(rng, mean);
  return poisson_ptrs(rng, std::min(mean, kMaxMean));
}

RequestSource::RequestSource(RequestSourceParams params)
    : params_(params), base_(params.seed) {
  DCS_REQUIRE(std::isfinite(params_.peak_rps) && params_.peak_rps > 0.0,
              "peak_rps must be positive and finite");
}

std::size_t RequestSource::arrivals(std::uint64_t tick_index, double demand,
                                    Duration dt) const noexcept {
  const double mean = std::max(demand, 0.0) * params_.peak_rps * dt.sec();
  Rng tick_rng = base_.fork(tick_index);
  return poisson_sample(tick_rng, mean);
}

}  // namespace dcs::serving
