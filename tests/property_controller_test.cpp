// Parameterized end-to-end sweeps: every controller mode against every
// workload family and several infrastructure variants, checking the global
// safety and sanity invariants (DESIGN.md §6).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>

#include "core/datacenter.h"
#include "util/rng.h"
#include "workload/ms_trace.h"
#include "workload/yahoo_trace.h"

namespace dcs::core {
namespace {

TimeSeries make_trace(const std::string& which) {
  if (which == "ms") return workload::generate_ms_trace();
  if (which == "yahoo-short") {
    workload::YahooTraceParams p;
    p.burst_degree = 3.4;
    p.burst_duration = Duration::minutes(3);
    return workload::generate_yahoo_trace(p);
  }
  workload::YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(15);
  return workload::generate_yahoo_trace(p);
}

DataCenterConfig make_config(const std::string& variant) {
  DataCenterConfig c;
  c.fleet.pdu_count = 2;
  if (variant == "no-tes") c.has_tes = false;
  if (variant == "tight") {
    c.dc_headroom = 0.0;
    c.battery_per_server.capacity = Charge::amp_hours(0.25);
    c.tes_capacity_minutes = 6.0;
  }
  if (variant == "roomy") {
    c.dc_headroom = 0.20;
    c.battery_per_server.capacity = Charge::amp_hours(1.0);
    c.tes_capacity_minutes = 24.0;
  }
  return c;
}

using ModeMatrix = std::tuple<Mode, std::string /*trace*/, std::string /*cfg*/>;

std::string mode_name(Mode mode) {
  switch (mode) {
    case Mode::kControlled: return "controlled";
    case Mode::kUncontrolled: return "uncontrolled";
    case Mode::kNoSprint: return "no_sprint";
    case Mode::kPowerCapped: return "power_capped";
    case Mode::kDvfsCapped: return "dvfs_capped";
  }
  return "unknown";
}

class ModeSweep : public ::testing::TestWithParam<ModeMatrix> {};

TEST_P(ModeSweep, GlobalInvariants) {
  const auto& [mode, trace_name, cfg_name] = GetParam();
  DataCenter dc(make_config(cfg_name));
  const TimeSeries trace = make_trace(trace_name);
  GreedyStrategy greedy;
  Strategy* strategy = mode == Mode::kControlled ? &greedy : nullptr;
  const RunResult r = dc.run(trace, strategy, {.mode = mode, .record = true});

  // Achieved is capped by demand at every tick and bounded overall.
  const TimeSeries& demand = r.recorder.series("demand");
  const TimeSeries& achieved = r.recorder.series("achieved");
  for (std::size_t i = 0; i < demand.size(); ++i) {
    ASSERT_LE(achieved[i].value, demand[i].value + 1e-9);
    ASSERT_GE(achieved[i].value, 0.0);
  }

  // Stored-state bounds.
  EXPECT_GE(r.min_ups_soc, -1e-12);
  EXPECT_LE(r.min_ups_soc, 1.0 + 1e-12);
  EXPECT_GE(r.min_tes_soc, -1e-12);

  if (mode == Mode::kUncontrolled) {
    // The uncontrolled baseline may trip; everything else must not.
    return;
  }
  EXPECT_FALSE(r.tripped) << mode_name(mode);
  EXPECT_LT(r.recorder.series("dc_cb_heat").max_value(), 1.0);
  EXPECT_LT(r.recorder.series("pdu_cb_heat").max_value(), 1.0);
  EXPECT_GE(r.performance_factor, 1.0 - 1e-9) << mode_name(mode);
  // Controlled / capped modes never take the room past the threshold.
  EXPECT_LE(r.peak_room_temperature.c(), 35.0 + 1e-9);

  if (mode == Mode::kNoSprint) {
    EXPECT_NEAR(r.performance_factor, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(r.ups_energy.j(), 0.0);
  }
  if (mode == Mode::kPowerCapped || mode == Mode::kDvfsCapped) {
    // Capping uses no stored energy.
    EXPECT_DOUBLE_EQ(r.ups_energy.j(), 0.0);
    EXPECT_DOUBLE_EQ(r.tes_saved_energy.j(), 0.0);
  }
  if (mode == Mode::kControlled) {
    EXPECT_GT(r.performance_factor, 1.05) << trace_name << " " << cfg_name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ModeSweep,
    ::testing::Combine(::testing::Values(Mode::kControlled, Mode::kNoSprint,
                                         Mode::kPowerCapped, Mode::kDvfsCapped,
                                         Mode::kUncontrolled),
                       ::testing::Values("ms", "yahoo-short", "yahoo-long"),
                       ::testing::Values("default", "no-tes", "tight", "roomy")),
    [](const ::testing::TestParamInfo<ModeMatrix>& info) {
      const std::string name = mode_name(std::get<0>(info.param));
      std::string trace = std::get<1>(info.param);
      for (char& c : trace) {
        if (c == '-') c = '_';
      }
      std::string cfg = std::get<2>(info.param);
      for (char& c : cfg) {
        if (c == '-') c = '_';
      }
      return name + "_" + trace + "_" + cfg;
    });

// ---------------------------------------------------------------------------
// Cross-mode dominance: on every workload/config, controlled sprinting
// weakly dominates both capping baselines.
// ---------------------------------------------------------------------------

using DomParams = std::tuple<std::string /*trace*/, std::string /*cfg*/>;

class Dominance : public ::testing::TestWithParam<DomParams> {};

TEST_P(Dominance, SprintingDominatesCapping) {
  const auto& [trace_name, cfg_name] = GetParam();
  DataCenter dc(make_config(cfg_name));
  const TimeSeries trace = make_trace(trace_name);
  GreedyStrategy greedy;
  const double sprint = dc.run(trace, &greedy).performance_factor;
  const double core_cap =
      dc.run(trace, nullptr, {.mode = Mode::kPowerCapped}).performance_factor;
  const double dvfs_cap =
      dc.run(trace, nullptr, {.mode = Mode::kDvfsCapped}).performance_factor;
  EXPECT_GE(sprint, core_cap - 1e-9);
  EXPECT_GE(core_cap, dvfs_cap - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Dominance,
    ::testing::Combine(::testing::Values("ms", "yahoo-short", "yahoo-long"),
                       ::testing::Values("default", "tight", "roomy")));

// ---------------------------------------------------------------------------
// Fuzz: random demand walks plus random supply dips, per seed. The
// controlled sprint must stay safe whatever the workload does.
// ---------------------------------------------------------------------------

class ControllerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ControllerFuzz, RandomDemandAndSupplyStaySafe) {
  Rng rng(GetParam());
  // Bounded random walk in [0, 4] with occasional jumps.
  TimeSeries demand;
  double level = rng.uniform(0.2, 1.0);
  for (int s = 0; s <= 1800; s += 5) {
    if (rng.uniform() < 0.02) {
      level = rng.uniform(0.2, 4.0);  // burst arrival / departure
    } else {
      level += rng.normal(0.0, 0.05);
    }
    level = std::clamp(level, 0.05, 4.0);
    demand.push_back(Duration::seconds(s), level);
  }
  // One random supply dip.
  TimeSeries supply;
  const double dip_start = rng.uniform(120.0, 1200.0);
  const double dip_level = rng.uniform(0.4, 0.95);
  supply.push_back(Duration::zero(), 1.0);
  supply.push_back(Duration::seconds(dip_start), dip_level);
  supply.push_back(Duration::seconds(dip_start + rng.uniform(30.0, 300.0)), 1.0);
  supply.push_back(Duration::seconds(1800), 1.0);

  DataCenterConfig config = make_config("default");
  DataCenter dc(config);
  GreedyStrategy greedy;
  const RunResult r = dc.run(demand, &greedy,
                             {.record = true, .supply_fraction = &supply});
  EXPECT_FALSE(r.tripped);
  EXPECT_GE(r.performance_factor, 1.0 - 1e-9);
  EXPECT_LE(r.peak_room_temperature.c(), 35.0 + 1e-9);
  EXPECT_LT(r.recorder.series("dc_cb_heat").max_value(), 1.0);
  EXPECT_GE(r.min_ups_soc, -1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace dcs::core
