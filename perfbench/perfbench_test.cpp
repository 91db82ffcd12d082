// Unit tests of the benchmark's own code: statistics, spans, the metric
// list against BENCHMARK.json, and a tiny pass of every workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "perfbench.h"

namespace perfbench {
namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

/// 1, 2, ..., n in descending order, so the percentile has to sort.
std::vector<double> descending(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);
  return values;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> hundred = descending(100);
  EXPECT_EQ(percentile(hundred, kTailPercent), 90.0);
  EXPECT_EQ(percentile(hundred, 50), 50.0);
  EXPECT_EQ(percentile(hundred, 100), 100.0);
  EXPECT_EQ(std::count_if(hundred.begin(), hundred.end(),
                          [](double v) { return v > 90.0; }),
            10);
}

TEST(Percentile, SampleCountRule) {
  // p90 is the ⌈0.9 n⌉-th smallest run: the 22nd of strategies_909's 24
  // runs a pass, the 36th of serving_slo's 40, and the largest of up to
  // nine runs, such as one day_traced pass.
  EXPECT_EQ(percentile(descending(24), kTailPercent), 22.0);
  EXPECT_EQ(percentile(descending(40), kTailPercent), 36.0);
  EXPECT_EQ(percentile(descending(10), kTailPercent), 9.0);
  for (const int n : {9, 4, 2, 1}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(percentile(descending(n), kTailPercent), n);
  }
  EXPECT_EQ(percentile({}, kTailPercent), 0.0);
}

TEST(PaperGap, ZeroInsideBandMeanDistanceOutside) {
  EXPECT_EQ(paper_gap({1.62, 1.70, 1.76}), 0.0);
  EXPECT_NEAR(paper_gap({1.50, 1.70, 1.86}), (0.12 + 0.0 + 0.10) / 3.0,
              1e-12);
  EXPECT_EQ(paper_gap({}), 0.0);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  const std::vector<Span> spans = {{"root", 0, 100, -1},
                                   {"a", 10, 40, 0},
                                   {"b", 30, 50, 0},
                                   {"c", 60, 70, 0},
                                   {"a.child", 12, 20, 1}};
  EXPECT_DOUBLE_EQ(self_time_us(spans, 0), 50.0);
  EXPECT_DOUBLE_EQ(self_time_us(spans, 1), 22.0);
  EXPECT_EQ(span_durations(spans, "c"), std::vector<double>{10.0});
}

TEST(Spans, DisabledLogRecordsNothing) {
  SpanLog log(false);
  const int id = log.open("x", -1);
  log.close(id);
  log.add("y", 0, 1, -1);
  EXPECT_EQ(id, -1);
  EXPECT_TRUE(log.spans().empty());
}

#ifdef __linux__
TEST(NextCpu, LeavesTheThreadUnpinned) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
  for (int i = 0; i < 3; ++i) next_cpu();
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}
#endif

TEST(Seeds, StreamsDiffer) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(5, 3), derive_seed(5, 3));
}

TEST(BenchmarkJson, ListsEveryMetricAndWorkload) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto listed = [&](std::string_view name, std::string_view unit) {
    std::ostringstream entry;
    entry << "\"name\": \"" << name << "\"";
    if (!unit.empty()) entry << ", \"unit\": \"" << unit << "\"";
    return text.find(entry.str()) != std::string::npos;
  };
  for (const MetricInfo& m : kEndToEnd) EXPECT_TRUE(listed(m.name, m.unit));
  for (const MetricInfo& m : kPerLayer) EXPECT_TRUE(listed(m.name, m.unit));
  for (const std::string_view w : kWorkloads) EXPECT_TRUE(listed(w, ""));
}

Settings tiny(std::size_t workers, std::uint64_t seed = 7) {
  Settings s;
  s.seed = seed;
  s.workers = workers;
  s.pdus = 2;
  s.tiny = true;
  s.scratch_dir = testing::TempDir();
  return s;
}

PassResult one_pass(std::string_view workload, const Settings& settings,
                    bool traced) {
  SpanLog spans(traced);
  return make_workload(workload, settings)->pass(spans, traced);
}

TEST(Workloads, TinyPassOfEachWorkloadPassesItsChecks) {
  for (const std::string_view name : kWorkloads) {
    SCOPED_TRACE(std::string(name));
    for (const std::uint64_t seed : {7u, 8u}) {
      const PassResult plain = one_pass(name, tiny(2, seed), false);
      EXPECT_GT(plain.attempted, 0u);
      EXPECT_TRUE(plain.failures.empty()) << plain.failures.front();
      EXPECT_FALSE(plain.run_ms.empty());
      EXPECT_GT(plain.setup_s, 0.0);
      EXPECT_GT(plain.wall_s, 0.0);

      // Spans and probes change no simulated output.
      const PassResult traced = one_pass(name, tiny(2, seed), true);
      EXPECT_TRUE(traced.failures.empty()) << traced.failures.front();
      EXPECT_EQ(traced.digest, plain.digest);
      for (const char* layer : {"workload.gen_ms", "core.dc_init_us",
                                "core.run_fixed_us", "core.tick_ns",
                                "core.runs", "sim.ticks"}) {
        EXPECT_TRUE(traced.layers.contains(layer)) << layer;
      }
    }
  }
}

TEST(Workloads, SeedFeedsTheGenerators) {
  for (const std::string_view name : kWorkloads) {
    SCOPED_TRACE(std::string(name));
    EXPECT_NE(one_pass(name, tiny(2, 7), false).digest,
              one_pass(name, tiny(2, 8), false).digest);
  }
}

TEST(Workloads, DigestIndependentOfWorkerCount) {
  for (const std::string_view name : {"strategies_909", "serving_slo"}) {
    SCOPED_TRACE(std::string(name));
    EXPECT_EQ(one_pass(name, tiny(1), false).digest,
              one_pass(name, tiny(3), false).digest);
  }
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW((void)make_workload("nope", tiny(1)), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
