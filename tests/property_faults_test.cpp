// Property tests over randomized fault scenarios: whatever the injector
// throws at it (within the survivable envelope of FaultSchedule::random),
// a controlled run must never trip a breaker and never violate a watchdog
// invariant — and for a fixed scenario shape, performance must not improve
// as the faults get worse.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/datacenter.h"
#include "faults/schedule.h"
#include "workload/yahoo_trace.h"

namespace dcs::core {
namespace {

constexpr std::uint64_t kSeeds = 50;

DataCenterConfig small_config() {
  DataCenterConfig c;
  c.fleet.pdu_count = 2;
  return c;
}

TimeSeries property_trace() {
  workload::YahooTraceParams p;
  p.length = Duration::minutes(20);
  p.burst_degree = 2.6;
  p.burst_duration = Duration::minutes(10);
  return workload::generate_yahoo_trace(p);
}

RunResult run_scenario(DataCenter& dc, const std::vector<Zone>& zones,
                       std::uint64_t seed, double severity) {
  const faults::FaultSchedule schedule = faults::FaultSchedule::random(
      seed, zones.front().demand->end_time(), severity);
  ConstantBoundStrategy bound(2.4);
  return dc.run(zones, &bound, {.faults = &schedule});
}

RunResult run_scenario(DataCenter& dc, const TimeSeries& trace,
                       std::uint64_t seed, double severity) {
  return run_scenario(dc, {{dc.config().fleet.pdu_count, &trace}}, seed,
                      severity);
}

TEST(FaultProperty, ControlledRunSurvivesEveryRandomScenario) {
  // The uniform fleet, and the same two PDUs split into zones: the burst in
  // zone 0, a flat 0.4 in zone 1.
  DataCenter dc(small_config());
  const TimeSeries trace = property_trace();
  TimeSeries quiet;
  quiet.push_back(Duration::zero(), 0.4);
  quiet.push_back(trace.end_time(), 0.4);
  const std::vector<Zone> inputs[] = {{{2, &trace}},
                                      {{1, &trace}, {1, &quiet}}};
  for (const std::vector<Zone>& zones : inputs) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const RunResult r = run_scenario(dc, zones, seed, 1.0);
      SCOPED_TRACE(std::to_string(zones.size()) + " zone(s), seed " +
                   std::to_string(seed));
      ASSERT_FALSE(r.tripped);
      ASSERT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
      // Degradation may cost the whole sprint (factor exactly 1) but the
      // baseline service level is never sacrificed, in any zone.
      ASSERT_GE(r.performance_factor, 1.0 - 1e-9);
      for (const double zone_factor : r.zone_performance_factor) {
        ASSERT_GE(zone_factor, 1.0 - 1e-9);
      }
    }
  }
}

TEST(FaultProperty, PerformanceDegradesMonotonicallyWithSeverity) {
  // Same seed = same fault kinds and windows; only the magnitudes scale.
  // Worse faults must never help (small tolerance absorbs the discrete
  // feasibility search snapping between core counts).
  DataCenter dc(small_config());
  const TimeSeries trace = property_trace();
  constexpr double kSeverities[] = {0.0, 0.35, 0.7, 1.0};
  constexpr double kTolerance = 0.02;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    double prev = 0.0;
    for (std::size_t i = 0; i < std::size(kSeverities); ++i) {
      const RunResult r = run_scenario(dc, trace, seed, kSeverities[i]);
      ASSERT_FALSE(r.tripped) << "seed " << seed;
      if (i > 0) {
        ASSERT_LE(r.performance_factor, prev + kTolerance)
            << "seed " << seed << ": severity " << kSeverities[i]
            << " outperformed severity " << kSeverities[i - 1];
      }
      prev = r.performance_factor;
    }
  }
}

TEST(FaultProperty, ZeroSeverityMatchesFaultFreeRun) {
  // severity 0 zeroes every magnitude: the injector runs but must change
  // nothing about the physics.
  DataCenter dc(small_config());
  const TimeSeries trace = property_trace();
  ConstantBoundStrategy bound(2.4);
  const RunResult clean = dc.run(trace, &bound);
  for (std::uint64_t seed : {7u, 23u, 41u}) {
    const RunResult r = run_scenario(dc, trace, seed, 0.0);
    EXPECT_EQ(r.performance_factor, clean.performance_factor) << seed;
    EXPECT_EQ(r.ups_energy.j(), clean.ups_energy.j()) << seed;
  }
}

}  // namespace
}  // namespace dcs::core
