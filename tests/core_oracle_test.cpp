#include "core/oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/prediction_strategy.h"
#include "workload/burst.h"
#include "workload/ms_trace.h"
#include "workload/yahoo_trace.h"

namespace dcs::core {
namespace {

DataCenterConfig small_config() {
  DataCenterConfig c;
  c.fleet.pdu_count = 2;
  return c;
}

TEST(OracleSearch, BeatsOrMatchesEveryConstantBound) {
  DataCenter dc(small_config());
  workload::YahooTraceParams p;
  p.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  const OracleResult oracle = oracle_search(dc, trace, 4);
  for (const auto& [bound, perf] : oracle.sweep) {
    EXPECT_GE(oracle.best_performance, perf - 1e-12) << "bound " << bound;
  }
  EXPECT_GE(oracle.best_bound, 1.0);
  EXPECT_LE(oracle.best_bound, 4.0);
}

TEST(OracleSearch, SweepCoversCoreRange) {
  DataCenter dc(small_config());
  const TimeSeries trace = workload::generate_yahoo_trace();
  const OracleResult r = oracle_search(dc, trace, 6);
  // 12 -> 48 cores in strides of 6, final point forced: 12,18,...,48.
  EXPECT_EQ(r.sweep.size(), 7u);
  EXPECT_DOUBLE_EQ(r.sweep.front().first, 1.0);
  EXPECT_DOUBLE_EQ(r.sweep.back().first, 4.0);
}

TEST(OracleSearch, LongBurstPrefersConstrainedBound) {
  // Fig. 10b: for long bursts the optimal bound is an interior point.
  DataCenter dc(small_config());
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(15);
  const OracleResult r = oracle_search(dc, workload::generate_yahoo_trace(p), 2);
  EXPECT_LT(r.best_bound, 3.5);
  EXPECT_GT(r.best_bound, 1.5);
}

TEST(OracleSearch, ShortBurstAllowsGreedyBound) {
  // Fig. 10a: for short bursts an unconstrained bound is optimal (or tied).
  DataCenter dc(small_config());
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(5);
  const OracleResult r = oracle_search(dc, workload::generate_yahoo_trace(p), 2);
  GreedyStrategy greedy;
  const RunResult greedy_run = dc.run(workload::generate_yahoo_trace(p), &greedy);
  EXPECT_NEAR(r.best_performance, greedy_run.performance_factor, 0.01);
}

/// The search that simulates every candidate in order, one fresh
/// DataCenter each, keeping the lowest best bound on ties: the reference
/// oracle_search must reproduce bit for bit.
OracleResult exhaustive_search(const DataCenterConfig& config,
                               const TimeSeries& demand,
                               std::size_t core_stride) {
  const std::size_t normal = config.fleet.server.chip.normal_cores;
  const std::size_t total = config.fleet.server.chip.total_cores;
  OracleResult out;
  for (std::size_t cores = normal; cores <= total;
       cores = std::min(cores + core_stride, total + 1)) {
    const double bound =
        static_cast<double>(cores) / static_cast<double>(normal);
    DataCenter dc(config);
    ConstantBoundStrategy strategy(bound, "oracle");
    const double performance = dc.run(demand, &strategy).performance_factor;
    out.sweep.emplace_back(bound, performance);
    if (performance > out.best_performance) {
      out.best_performance = performance;
      out.best_bound = bound;
    }
    if (cores == total) break;
  }
  return out;
}

void expect_matches_exhaustive(const DataCenterConfig& config,
                               const TimeSeries& demand,
                               std::size_t core_stride,
                               const std::string& label) {
  SCOPED_TRACE(label);
  const OracleResult searched =
      oracle_search(DataCenter(config), demand, core_stride, /*threads=*/3);
  const OracleResult reference = exhaustive_search(config, demand, core_stride);
  EXPECT_EQ(searched.sweep, reference.sweep);
  EXPECT_EQ(searched.best_bound, reference.best_bound);
  EXPECT_EQ(searched.best_performance, reference.best_performance);
}

TEST(OracleSearch, MatchesExhaustiveSearchBitForBit) {
  // Candidates whose cap covers the trace's peak demand share one run, so
  // the search must equal one that simulates them all.
  const DataCenterConfig config = small_config();
  // Fig. 9's upper-bound table: every cell's search at stride 4.
  for (const double minutes : {1.0, 5.0, 10.0, 15.0, 25.0}) {
    for (const double degree : {1.5, 2.0, 2.6, 3.0, 3.6}) {
      workload::YahooTraceParams p;
      p.burst_duration = Duration::minutes(minutes);
      p.burst_degree = degree;
      std::ostringstream label;
      label << "table cell " << minutes << " min x" << degree;
      expect_matches_exhaustive(config, workload::generate_yahoo_trace(p), 4,
                                label.str());
    }
  }
  // The MS trace asks for more cores than the chip has: no candidate
  // saturates.
  expect_matches_exhaustive(config, workload::generate_ms_trace(), 2, "ms");
  // No burst: the normal cores cover every sample.
  workload::YahooTraceParams flat;
  flat.burst_degree = 1.0;
  expect_matches_exhaustive(config, workload::generate_yahoo_trace(flat), 2,
                            "burst-free");
  // Samples every 2 s, held across two control periods.
  workload::YahooTraceParams coarse;
  coarse.step = Duration::seconds(2);
  expect_matches_exhaustive(config, workload::generate_yahoo_trace(coarse), 1,
                            "2-s samples");
  // A control period shorter than the sample step.
  DataCenterConfig half_second = config;
  half_second.control_period = Duration::seconds(0.5);
  expect_matches_exhaustive(half_second, workload::generate_yahoo_trace(), 2,
                            "0.5-s control period");
  // Another chip: 40 cores, 10 of them normal.
  DataCenterConfig small_chip = config;
  small_chip.fleet.server.chip.total_cores = 40;
  small_chip.fleet.server.chip.normal_cores = 10;
  small_chip.fleet.throughput.normal_cores = 10;
  expect_matches_exhaustive(small_chip, workload::generate_yahoo_trace(), 1,
                            "40-core chip");

  // The cases below end their bursts while the sprint still runs, so the
  // last burst tick sprints and a cut one tick early would show.
  workload::YahooTraceParams short_burst;
  short_burst.burst_degree = 2.0;
  short_burst.burst_duration = Duration::minutes(2);
  // Two bursts with a calm gap between them: the cut follows the second,
  // and the gap is simulated.
  const TimeSeries two_bursts = workload::inject_burst(
      workload::generate_yahoo_trace(short_burst), Duration::minutes(12),
      Duration::minutes(1), 2.6);
  expect_matches_exhaustive(config, two_bursts, 2, "two bursts");
  // The last tick bursts: the cut is the trace's end, with no tail.
  workload::YahooTraceParams to_end = short_burst;
  to_end.burst_start = to_end.length - to_end.burst_duration;
  expect_matches_exhaustive(config, workload::generate_yahoo_trace(to_end), 2,
                            "burst to the end");
  // A control period that does not divide the 1-s sample step.
  DataCenterConfig odd_period = config;
  odd_period.control_period = Duration::seconds(0.7);
  expect_matches_exhaustive(odd_period,
                            workload::generate_yahoo_trace(short_burst), 2,
                            "0.7-s control period");
  // Samples exactly at the burst threshold are not bursts: one right after
  // the burst and one later in the tail.
  std::vector<Sample> samples =
      workload::generate_yahoo_trace(short_burst).samples();
  for (Sample& sample : samples) {
    if (sample.time == short_burst.burst_start + short_burst.burst_duration ||
        sample.time == Duration::minutes(20)) {
      sample.value = 1.0 + kDegreeEps;
    }
  }
  expect_matches_exhaustive(config, TimeSeries(std::move(samples)), 2,
                            "samples at the threshold");
}

/// The cells of one degree of Fig. 9's table, as build_upper_bound_table
/// makes them (sampled every `step`): up to its last burst tick each is the
/// 25-min cell's trace.
std::vector<TimeSeries> table_cells(double degree,
                                    Duration step = Duration::seconds(1)) {
  std::vector<TimeSeries> cells;
  for (const double minutes : {1.0, 5.0, 10.0, 15.0, 25.0}) {
    workload::YahooTraceParams p;
    p.step = step;
    p.burst_duration = Duration::minutes(minutes);
    p.burst_degree = degree;
    cells.push_back(workload::generate_yahoo_trace(p));
  }
  return cells;
}

/// The search over several traces at once must give each trace the whole
/// result of the exhaustive search on that trace alone, bit for bit, at any
/// worker count: a trace that rides on another's run reads that run's
/// integrals at its own cut, no tick early or late.
void expect_each_matches_exhaustive(const DataCenterConfig& config,
                                    const std::vector<TimeSeries>& demands,
                                    std::size_t core_stride) {
  std::vector<OracleResult> references;
  for (const TimeSeries& demand : demands) {
    references.push_back(exhaustive_search(config, demand, core_stride));
  }
  for (const std::size_t threads : {1u, 3u}) {
    const std::vector<OracleResult> searched =
        oracle_search(DataCenter(config), demands, core_stride, threads);
    ASSERT_EQ(searched.size(), demands.size());
    for (std::size_t i = 0; i < demands.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", trace " +
                   std::to_string(i));
      EXPECT_EQ(searched[i].sweep, references[i].sweep);
      EXPECT_EQ(searched[i].best_bound, references[i].best_bound);
      EXPECT_EQ(searched[i].best_performance, references[i].best_performance);
    }
  }
}

TEST(OracleSearch, TracesOfOneDegreeMatchExhaustiveSearchEach) {
  // Every cell rides on the 25-min cell's run.
  expect_each_matches_exhaustive(small_config(), table_cells(2.6), 4);
}

TEST(OracleSearch, TraceThatDiffersBeforeItsCutIsNotHosted) {
  // A copy of the 10-min cell whose last burst tick asks for less: its cut
  // is the cell's, but up to there it is no longer a prefix of any other
  // trace, so it must run on its own.
  std::vector<TimeSeries> demands = table_cells(2.6);
  std::vector<Sample> samples = demands[2].samples();
  for (Sample& sample : samples) {
    if (sample.time == Duration::minutes(15) - Duration::seconds(1)) {
      sample.value = 1.2;
    }
  }
  demands.emplace_back(std::move(samples));
  expect_each_matches_exhaustive(small_config(), demands, 4);
}

TEST(OracleSearch, MixedTracesMatchExhaustiveSearchEach) {
  // Traces no other trace hosts (the MS trace, 2-s samples), one that
  // simulates nothing (no burst) and the table cells of two degrees, which
  // share samples before every cut but must not share runs.
  std::vector<TimeSeries> demands = {workload::generate_ms_trace()};
  workload::YahooTraceParams flat;
  flat.burst_degree = 1.0;
  demands.push_back(workload::generate_yahoo_trace(flat));
  workload::YahooTraceParams coarse;
  coarse.step = Duration::seconds(2);
  demands.push_back(workload::generate_yahoo_trace(coarse));
  for (const double degree : {2.0, 3.6}) {
    for (TimeSeries& cell : table_cells(degree)) {
      demands.push_back(std::move(cell));
    }
  }
  expect_each_matches_exhaustive(small_config(), demands, 4);
}

TEST(OracleSearch, TracesAtAnOddControlPeriodMatchExhaustiveSearchEach) {
  // Ticks of 0.7 s: a 1-s cell's cut falls past the first sample after its
  // burst, so it runs on its own, while cells sampled every 0.7 s (on the
  // ticks' own clock) ride on their longest.
  DataCenterConfig odd_period = small_config();
  odd_period.control_period = Duration::seconds(0.7);
  std::vector<TimeSeries> demands = table_cells(2.6);
  for (TimeSeries& cell : table_cells(2.6, Duration::seconds(0.7))) {
    demands.push_back(std::move(cell));
  }
  expect_each_matches_exhaustive(odd_period, demands, 4);
}

TEST(OracleSearch, StrideValidation) {
  DataCenter dc(small_config());
  EXPECT_THROW((void)oracle_search(dc, workload::generate_yahoo_trace(), 0),
               std::invalid_argument);
}

TEST(UpperBoundTableBuilder, ProducesUsableTable) {
  DataCenter dc(small_config());
  const std::array<Duration, 3> durations = {
      Duration::minutes(1), Duration::minutes(8), Duration::minutes(15)};
  const std::array<double, 2> degrees = {2.0, 3.2};
  const UpperBoundTable table = build_upper_bound_table(
      dc, durations, degrees, workload::YahooTraceParams{}, 6);
  EXPECT_EQ(table.durations().size(), 3u);
  EXPECT_EQ(table.degrees().size(), 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      const double b = table.bound_at(i, j);
      EXPECT_GE(b, 1.0);
      EXPECT_LE(b, 4.0);
    }
  }
  // Short bursts get at least as generous a bound as long ones.
  EXPECT_GE(table.bound_at(0, 1), table.bound_at(2, 1) - 1e-9);
}

TEST(UpperBoundTableBuilder, TableFeedsPredictionStrategy) {
  DataCenter dc(small_config());
  const std::array<Duration, 2> durations = {Duration::minutes(1),
                                             Duration::minutes(15)};
  const std::array<double, 2> degrees = {2.0, 3.2};
  const UpperBoundTable table = build_upper_bound_table(
      dc, durations, degrees, workload::YahooTraceParams{}, 9);
  workload::YahooTraceParams p;
  p.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  PredictionStrategy strategy(Duration::minutes(15), &table);
  const RunResult r = dc.run(trace, &strategy);
  GreedyStrategy greedy;
  const RunResult g = dc.run(trace, &greedy);
  EXPECT_GT(r.performance_factor, g.performance_factor);
}

TEST(UpperBoundTableBuilder, MatchesPerCellExhaustiveSearch) {
  // Each cell's bound is the exhaustive search's on the cell's trace,
  // built as the table builds it. A 1-s burst is a single burst tick.
  const DataCenterConfig config = small_config();
  const std::array<Duration, 3> durations = {
      Duration::seconds(1), Duration::minutes(2), Duration::minutes(10)};
  const std::array<double, 2> degrees = {1.5, 3.0};
  const workload::YahooTraceParams base;
  for (const std::size_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const UpperBoundTable table = build_upper_bound_table(
        DataCenter(config), durations, degrees, base, 4, threads);
    for (std::size_t i = 0; i < durations.size(); ++i) {
      for (std::size_t j = 0; j < degrees.size(); ++j) {
        workload::YahooTraceParams p = base;
        p.burst_duration = durations[i];
        p.burst_degree = degrees[j];
        const OracleResult reference =
            exhaustive_search(config, workload::generate_yahoo_trace(p), 4);
        EXPECT_EQ(table.bound_at(i, j), reference.best_bound)
            << "cell " << i << ", " << j;
      }
    }
  }
}

TEST(UpperBoundTableBuilder, Validation) {
  DataCenter dc(small_config());
  const std::array<Duration, 1> one_duration = {Duration::minutes(1)};
  const std::array<double, 2> degrees = {2.0, 3.0};
  EXPECT_THROW((void)build_upper_bound_table(dc, one_duration, degrees,
                                       workload::YahooTraceParams{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dcs::core
