// Heap allocations of a DataCenter::run do not grow with its length: setup
// allocates, a control period does not, and a recorded run reserves its
// columns for the whole horizon up front. Every heap allocation in this
// test binary is counted, so it holds only these tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "core/datacenter.h"
#include "core/strategy.h"
#include "workload/yahoo_trace.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair the inlined free() with a
// new-expression and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dcs::core {
namespace {

/// `repeats` back-to-back copies of the 30-minute Yahoo burst, 1,800
/// control periods each, so the longer run sprints as often per period.
TimeSeries bursts(int repeats) {
  const TimeSeries one = workload::generate_yahoo_trace();
  TimeSeries out;
  for (int r = 0; r < repeats; ++r) {
    const Duration shift = one.end_time() * static_cast<double>(r);
    for (const Sample& s : one.samples()) {
      if (r > 0 && s.time == Duration::zero()) continue;  // the seam
      out.push_back(s.time + shift, s.value);
    }
  }
  return out;
}

std::size_t allocations_of_run(const TimeSeries& demand, bool record) {
  DataCenterConfig config;
  config.fleet.pdu_count = 4;
  DataCenter dc(config);
  GreedyStrategy greedy;
  const std::size_t before = g_allocations.load();
  const RunResult r = dc.run(demand, &greedy, {.record = record});
  const std::size_t made = g_allocations.load() - before;
  EXPECT_GT(r.sprint_time.sec(), 0.0);
  EXPECT_EQ(r.recorder.has("degree"), record);
  return made;
}

TEST(RunAllocations, RecordedRunAllocatesTheSameAtAnyLength) {
  const TimeSeries short_run = bursts(1);
  const TimeSeries long_run = bursts(4);
  ASSERT_EQ(short_run.end_time(), Duration::seconds(1800));
  ASSERT_EQ(long_run.end_time(), Duration::seconds(7200));
  EXPECT_EQ(allocations_of_run(short_run, true),
            allocations_of_run(long_run, true));
}

TEST(RunAllocations, PlainRunAllocatesTheSameAtAnyLength) {
  EXPECT_EQ(allocations_of_run(bursts(1), false),
            allocations_of_run(bursts(4), false));
}

}  // namespace
}  // namespace dcs::core
