#include "serving/request_source.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dcs::serving {
namespace {

/// Knuth's multiplication method is exact but needs exp(-mean) to stay
/// representable; 16 keeps exp(-16) ~ 1.1e-7, far from double underflow.
constexpr double kChunkMean = 16.0;

/// Knuth's method: the number of uniforms whose running product stays
/// above `limit` = exp(-mean).
std::size_t poisson_chunk(Rng& rng, double limit) noexcept {
  std::size_t k = 0;
  double product = 1.0;
  do {
    ++k;
    product *= rng.uniform();
  } while (product > limit);
  return k - 1;
}

}  // namespace

std::size_t poisson_sample(Rng& rng, double mean) noexcept {
  static const double kChunkLimit = std::exp(-kChunkMean);
  std::size_t total = 0;
  while (mean > kChunkMean) {
    total += poisson_chunk(rng, kChunkLimit);
    mean -= kChunkMean;
  }
  if (mean <= 0.0) return total;
  return total + poisson_chunk(rng, std::exp(-mean));
}

RequestSource::RequestSource(RequestSourceParams params)
    : params_(params), base_(params.seed) {
  DCS_REQUIRE(params_.peak_rps > 0.0, "peak_rps must be positive");
}

std::size_t RequestSource::arrivals(std::uint64_t tick_index, double demand,
                                    Duration dt) const noexcept {
  const double mean = std::max(demand, 0.0) * params_.peak_rps * dt.sec();
  Rng tick_rng = base_.fork(tick_index);
  return poisson_sample(tick_rng, mean);
}

}  // namespace dcs::serving
