// Converts the per-second normalized demand traces (workload/ms_trace,
// workload/yahoo_trace, ...) into discrete request arrival streams: demand
// d at rate scale `peak_rps` offers Poisson(d * peak_rps * dt) requests per
// control period — a Poisson thinning of the trace rate. A period's draw
// costs the same at any rate: about 2.3 uniforms from a mean of 10 up.
//
// Determinism: each tick's count is drawn from a fresh Rng forked off the
// source seed by tick index, so the arrival stream for tick k is a pure
// function of (seed, k, demand, dt). Two sweep cells sharing a seed see the
// *same* arrivals and differ only in how the plant serves them, which keeps
// p99-vs-budget curves smooth; and the stream never depends on who else ran
// or in what order — the sweep runner's bit-identity contract.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.h"
#include "util/units.h"

namespace dcs::serving {

struct RequestSourceParams {
  /// Request rate corresponding to demand 1.0 (the trace's capacity line);
  /// positive and finite.
  double peak_rps = 400.0;
  std::uint64_t seed = 0x5e91ce5eedULL;
};

/// Exact Poisson(mean) sample: Knuth's product of uniforms below a mean of
/// 10, Hörmann's PTRS transformed rejection from 10 up. Returns 0 for a NaN
/// or non-positive mean and clamps the mean at 2^53. Deterministic given
/// the Rng state. Exposed for the serving tests.
[[nodiscard]] std::size_t poisson_sample(Rng& rng, double mean) noexcept;

class RequestSource {
 public:
  explicit RequestSource(RequestSourceParams params);

  /// Requests arriving during control period `tick_index` under normalized
  /// demand `demand`. Stateless per tick (see file comment).
  [[nodiscard]] std::size_t arrivals(std::uint64_t tick_index, double demand,
                                     Duration dt) const noexcept;

 private:
  RequestSourceParams params_;
  Rng base_;
};

}  // namespace dcs::serving
