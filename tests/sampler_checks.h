// Checks shared by the sampler tests: the generator steps a draw consumes,
// and Pearson's chi-square of binned draws against exact bin masses.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace dcs::test {

using RngState = std::array<std::uint64_t, 4>;
static_assert(std::is_trivially_copyable_v<Rng> &&
              sizeof(Rng) == sizeof(RngState));

/// The generator steps between two states of one stream: a copy of
/// `before` is stepped until it equals `after`, up to `limit` steps.
inline std::size_t steps_between(Rng before, const Rng& after,
                                 std::size_t limit) {
  const auto target = std::bit_cast<RngState>(after);
  std::size_t steps = 0;
  while (steps < limit && std::bit_cast<RngState>(before) != target) {
    (void)before.next_u64();
    ++steps;
  }
  return steps;
}

/// Pearson's statistic of `counts` (n draws in all) against bin `masses`
/// that sum to 1.
inline double chi_square(const std::vector<std::size_t>& counts,
                         const std::vector<double>& masses) {
  double n = 0.0;
  for (const std::size_t c : counts) n += static_cast<double>(c);
  double statistic = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double expected = n * masses[i];
    const double gap = static_cast<double>(counts[i]) - expected;
    statistic += gap * gap / expected;
  }
  return statistic;
}

/// The value a chi-square variable with `dof` degrees of freedom exceeds
/// with probability about 1e-5 (Wilson-Hilferty). The tests draw from
/// fixed seeds, so each always passes or always fails; a sampler with a
/// wrong constant lands far above the bound.
inline double chi_square_bound(std::size_t dof) {
  constexpr double z = 4.265;  // the standard normal's 1 - 1e-5 quantile
  const double d = static_cast<double>(dof);
  const double c = 2.0 / (9.0 * d);
  return d * std::pow(1.0 - c + z * std::sqrt(c), 3.0);
}

}  // namespace dcs::test
