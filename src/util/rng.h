// Deterministic pseudo-random generator for synthetic trace generation.
//
// Experiments must be exactly reproducible across machines, so we use our
// own SplitMix64/xoshiro256** implementation instead of std::mt19937 with
// distribution objects (whose outputs are implementation-defined).
//
// next_u64() and uniform() are defined here so the serving layer's draw
// loops (the Poisson arrival sampler, the ziggurat behind exponential())
// inline them. exponential() costs one 64-bit draw and no log for about
// 98% of draws, whatever the rate.
#pragma once

#include <cstdint>

namespace dcs {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    // xoshiro256**
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  [[nodiscard]] double normal() noexcept;

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Exponential with given rate (lambda > 0): a standard exponential from
  /// a 256-layer ziggurat (Marsaglia & Tsang), divided by the rate. A draw
  /// takes its layer from the low 8 bits of one next_u64() and its abscissa
  /// from the high 53; only the wedge test (one more uniform and an exp)
  /// and the tail beyond the base layer (one more uniform and a log) cost
  /// more.
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Stream splitting: derives the seed of an independent child stream from
  /// this generator's *current* state and `stream_id`. Pure integer mixing,
  /// so the mapping is identical on every platform; distinct stream ids (or
  /// distinct parent states) give statistically independent streams. Does
  /// not advance the parent.
  [[nodiscard]] std::uint64_t fork_seed(std::uint64_t stream_id) const noexcept;

  /// A generator seeded with fork_seed(stream_id). The determinism
  /// substrate for sweep task seeding: Rng(base).fork(cell).fork(replicate)
  /// yields a stable per-task stream regardless of thread count or
  /// scheduling order.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const noexcept {
    return Rng(fork_seed(stream_id));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace dcs
