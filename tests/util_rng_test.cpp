#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "sampler_checks.h"

namespace dcs {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  double lo = 1e9, hi = -1e9;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
  EXPECT_LT(lo, -1.5);  // the range is actually explored
  EXPECT_GT(hi, 2.5);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(42);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ForkIsDeterministic) {
  const Rng parent(123);
  EXPECT_EQ(parent.fork_seed(0), Rng(123).fork_seed(0));
  EXPECT_EQ(parent.fork_seed(7), Rng(123).fork_seed(7));
  Rng a = parent.fork(5);
  Rng b = Rng(123).fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng with_fork(9), plain(9);
  (void)with_fork.fork_seed(0);
  (void)with_fork.fork(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(with_fork.next_u64(), plain.next_u64());
  }
}

TEST(Rng, ForkDependsOnParentState) {
  Rng advanced(9);
  (void)advanced.next_u64();
  EXPECT_NE(advanced.fork_seed(0), Rng(9).fork_seed(0));
}

TEST(Rng, ForkStreamsAreDisjoint) {
  const Rng parent(0x5EEDC0DE);
  std::set<std::uint64_t> seen;
  const int streams = 8, draws = 1000;
  for (int s = 0; s < streams; ++s) {
    Rng child = parent.fork(static_cast<std::uint64_t>(s));
    for (int i = 0; i < draws; ++i) seen.insert(child.next_u64());
  }
  // Distinct streams must not collide (u64 birthday collisions over 8k
  // draws are astronomically unlikely for independent streams).
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(streams * draws));
}

TEST(Rng, ForkStreamsAreUncorrelated) {
  const Rng parent(77);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  const int n = 20000;
  double sum_a = 0, sum_b = 0, sum_ab = 0, sq_a = 0, sq_b = 0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sum_a += x;
    sum_b += y;
    sum_ab += x * y;
    sq_a += x * x;
    sq_b += y * y;
  }
  const double mean_a = sum_a / n, mean_b = sum_b / n;
  const double cov = sum_ab / n - mean_a * mean_b;
  const double var_a = sq_a / n - mean_a * mean_a;
  const double var_b = sq_b / n - mean_b * mean_b;
  const double corr = cov / std::sqrt(var_a * var_b);
  EXPECT_LT(std::abs(corr), 0.05);
}

TEST(Rng, ChainedForkMatchesSweepSeedingContract) {
  // Rng(base).fork(cell).fork_seed(rep) must depend only on (base, cell,
  // rep) — recomputing from scratch gives the same seed.
  const std::uint64_t base = 0xABCDEF;
  const std::uint64_t s1 = Rng(base).fork(3).fork_seed(2);
  const std::uint64_t s2 = Rng(base).fork(3).fork_seed(2);
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, Rng(base).fork(3).fork_seed(1));
  EXPECT_NE(s1, Rng(base).fork(2).fork_seed(2));
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(2.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialFitsTheExactBucketMasses) {
  // Chi-square of 2 * 10^6 draws at rate 2 against Exp(2)'s exact masses:
  // 256 equal-mass buckets below the ziggurat's tail start r = 7.697 / rate
  // and four beyond it. The draws that take more than one generator step
  // are the wedge tests and the tail; both must occur at their rate.
  constexpr double rate = 2.0;
  constexpr double r = 7.69711747013104972;
  constexpr std::size_t n = 2'000'000;
  std::vector<double> edges;  // in units of 1 / rate
  const double body = -std::expm1(-r);
  for (int j = 0; j < 256; ++j) {
    edges.push_back(-std::log1p(-body * j / 256.0));
  }
  for (const double past : {0.0, 1.0, 2.0, 4.0}) edges.push_back(r + past);
  std::vector<double> masses;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double upper =
        i + 1 < edges.size() ? std::exp(-edges[i + 1]) : 0.0;
    masses.push_back(std::exp(-edges[i]) - upper);
  }

  std::vector<std::size_t> counts(edges.size());
  std::size_t slow = 0;  // draws that took more than one step
  std::size_t tail = 0;
  Rng rng(0xe4a1);
  for (std::size_t i = 0; i < n; ++i) {
    const Rng before = rng;
    const double x = rng.exponential(rate);
    ASSERT_GE(x, 0.0);
    slow += test::steps_between(before, rng, 8) > 1;
    tail += x > r / rate;
    const auto bucket =
        std::upper_bound(edges.begin(), edges.end(), x * rate) -
        edges.begin() - 1;
    ++counts[static_cast<std::size_t>(bucket)];
  }
  EXPECT_LT(test::chi_square(counts, masses),
            test::chi_square_bound(counts.size() - 1));
  // About 2.2% of draws miss the quick test (a wedge or the tail) and
  // e^-r = 0.045% land in the tail.
  EXPECT_GT(slow, n / 60);
  EXPECT_LT(slow, n / 30);
  EXPECT_GT(tail, n / 4000);
  EXPECT_LT(tail, n / 1500);
}

TEST(Rng, ExponentialDrawsArePinned) {
  // 10^4 draws from a fixed seed, summed and FNV-1a hashed by bit pattern
  // in draw order. Any change to the ziggurat's tables, its bit split or
  // the uniform stream moves them.
  Rng rng(20151);
  double sum = 0.0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.exponential(0.5);
    sum += x;
    hash = (hash ^ std::bit_cast<std::uint64_t>(x)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(sum, 0x1.3dac2769dc61fp+14);  // 20331.038489764669
  EXPECT_EQ(hash, 0x7c3eeaf4fcafdcadULL);
}

}  // namespace
}  // namespace dcs
