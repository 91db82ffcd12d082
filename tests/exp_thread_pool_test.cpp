#include "exp/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace dcs::exp {
namespace {

TEST(ExpThreadPool, ResolveThreadsIsAlwaysPositive) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ExpThreadPool, ParallelForEmptyIsNoop) {
  parallel_for(0, 4, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ExpThreadPool, ParallelForWritesEverySlotExactlyOnce) {
  std::vector<int> slots(1000, 0);
  parallel_for(slots.size(), 8, [&](std::size_t i) { ++slots[i]; });
  EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0), 1000);
  EXPECT_TRUE(std::all_of(slots.begin(), slots.end(),
                          [](int v) { return v == 1; }));
}

TEST(ExpThreadPool, ParallelForSerialMatchesParallel) {
  std::vector<double> serial(100), parallel(100);
  const auto fn = [](std::size_t i) {
    return static_cast<double>(i) * 1.5 + 1.0;
  };
  parallel_for(100, 1, [&](std::size_t i) { serial[i] = fn(i); });
  parallel_for(100, 8, [&](std::size_t i) { parallel[i] = fn(i); });
  EXPECT_EQ(serial, parallel);
}

TEST(ExpThreadPool, ParallelForRethrowsLowestIndexException) {
  // Every index is attempted even after a failure, so the lowest-index
  // exception wins deterministically regardless of scheduling.
  std::atomic<int> attempted{0};
  const auto run = [&](std::size_t threads) {
    attempted = 0;
    try {
      parallel_for(16, threads, [&](std::size_t i) {
        attempted.fetch_add(1);
        if (i == 11) throw std::runtime_error("task 11");
        if (i == 3) throw std::runtime_error("task 3");
      });
      ADD_FAILURE() << "expected an exception";
      return std::string();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(run(1), "task 3");
  EXPECT_EQ(attempted.load(), 16);
  EXPECT_EQ(run(4), "task 3");
  EXPECT_EQ(attempted.load(), 16);
}

}  // namespace
}  // namespace dcs::exp
