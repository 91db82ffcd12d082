#include "util/rng.h"

#include <array>
#include <cmath>
#include <cstddef>
#include <numbers>

namespace dcs {
namespace {

// SplitMix64, used to expand the seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The 256-layer ziggurat under the Exp(1) density e^-x (Marsaglia & Tsang
/// 2000). Every layer has area (r + 1) e^-r. Layer i >= 1 is the rectangle
/// [0, x[i]] x [f[i], f[i + 1]], with f[i] = e^-x[i]; the part left of
/// x[i + 1] lies under the density. The base layer 0 is [0, r] x [0, e^-r]
/// plus the tail beyond r, stretched to width x[0] = r + 1 so a uniform
/// abscissa lands past r with the tail's share. x[256] = 0 tops it off.
struct ExpZiggurat {
  static constexpr std::size_t kLayers = 256;
  /// Where the tail begins: the r for which the layers close at x = 0.
  static constexpr double kTailStart = 7.69711747013104972;
  std::array<double, kLayers + 1> x;
  std::array<double, kLayers + 1> f;
};

/// Built on first use, with no heap allocation.
const ExpZiggurat& exp_ziggurat() noexcept {
  static const ExpZiggurat table = [] {
    constexpr double r = ExpZiggurat::kTailStart;
    const double area = (r + 1.0) * std::exp(-r);
    ExpZiggurat z{};
    z.x[0] = r + 1.0;
    z.x[1] = r;
    z.f[1] = std::exp(-r);
    for (std::size_t i = 2; i < ExpZiggurat::kLayers; ++i) {
      z.x[i] = -std::log(area / z.x[i - 1] + z.f[i - 1]);
      z.f[i] = std::exp(-z.x[i]);
    }
    z.x[ExpZiggurat::kLayers] = 0.0;
    z.f[ExpZiggurat::kLayers] = 1.0;
    return z;
  }();
  return table;
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = n * (UINT64_MAX / n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() noexcept {
  // Box-Muller; draw until u1 is nonzero so log() is finite.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

std::uint64_t Rng::fork_seed(std::uint64_t stream_id) const noexcept {
  // Collapse the 256-bit state and the stream id into one word, then run it
  // through two SplitMix64 rounds so neighbouring stream ids land far apart.
  std::uint64_t x = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 43);
  x ^= (stream_id + 1) * 0x9e3779b97f4a7c15ULL;
  (void)splitmix64(x);
  return splitmix64(x);
}

double Rng::exponential(double rate) noexcept {
  const ExpZiggurat& z = exp_ziggurat();
  for (;;) {
    const std::uint64_t bits = next_u64();
    const std::size_t layer = bits & (ExpZiggurat::kLayers - 1);
    const double x =
        static_cast<double>(bits >> 11) * 0x1.0p-53 * z.x[layer];
    if (x < z.x[layer + 1]) return x / rate;
    if (layer == 0) {
      // The tail is memoryless: r plus an Exp(1) draw, by inversion of a
      // uniform in (0, 1].
      return (ExpZiggurat::kTailStart - std::log(1.0 - uniform())) / rate;
    }
    // The wedge: accept if a uniform height in the layer falls under e^-x.
    const double y =
        z.f[layer] + (z.f[layer + 1] - z.f[layer]) * uniform();
    if (y < std::exp(-x)) return x / rate;
  }
}

}  // namespace dcs
