// Zonal runs: one demand per zone, each zone one weighted PDU group of the
// plant, stepped by the same SprintingController as every other run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/controller.h"
#include "core/datacenter.h"
#include "counter_tracks.h"
#include "faults/schedule.h"
#include "obs/counters.h"
#include "workload/yahoo_trace.h"

namespace dcs::core {
namespace {

DataCenterConfig small_config(std::size_t pdus = 4) {
  DataCenterConfig c;
  c.fleet.pdu_count = pdus;
  return c;
}

TimeSeries flat(double level, Duration end = Duration::minutes(30)) {
  TimeSeries t;
  t.push_back(Duration::zero(), level);
  t.push_back(end, level);
  return t;
}

RunResult run_zones(const DataCenterConfig& config,
                    const std::vector<Zone>& zones,
                    const RunOptions& options = {}) {
  GreedyStrategy greedy;
  return DataCenter(config).run(zones, &greedy, options);
}

/// The run's room peak against the critical threshold.
void expect_below_threshold(const DataCenterConfig& config,
                            const RunResult& r) {
  const thermal::RoomModel::Params room = config.room_params();
  EXPECT_LE(r.peak_room_temperature.c(),
            room.setpoint.c() + room.threshold_rise.c());
}

TEST(Zonal, ZonesMustTileTopology) {
  const TimeSeries d = flat(0.5);
  const TimeSeries shorter = flat(0.5, Duration::minutes(20));
  const DataCenterConfig config = small_config(4);
  EXPECT_THROW((void)run_zones(config, {{3, &d}}), std::invalid_argument);
  EXPECT_THROW((void)run_zones(config, {{3, &d}, {2, &d}}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)run_zones(config, {{2, &d}, {2, &d}}));
  EXPECT_THROW((void)run_zones(config, {}), std::invalid_argument);
  EXPECT_THROW((void)run_zones(config, {{4, nullptr}}), std::invalid_argument);
  EXPECT_THROW((void)run_zones(config, {{2, &d}, {2, &shorter}}),
               std::invalid_argument);
}

TEST(Zonal, QuietZonesServeTheirDemandExactly) {
  const TimeSeries d = flat(0.6);
  const RunResult r = run_zones(small_config(4), {{2, &d}, {2, &d}});
  EXPECT_FALSE(r.tripped);
  ASSERT_EQ(r.zone_performance_factor.size(), 2u);
  EXPECT_NEAR(r.zone_performance_factor[0], 1.0, 1e-9);
  EXPECT_NEAR(r.zone_performance_factor[1], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.sprint_time.sec(), 0.0);
}

TEST(Zonal, HotZoneSprintsWhileOthersIdle) {
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(p);
  const TimeSeries idle = flat(0.4, hot.end_time());
  const RunResult r = run_zones(small_config(4), {{1, &hot}, {3, &idle}});
  EXPECT_FALSE(r.tripped);
  EXPECT_GT(r.zone_performance_factor[0], 1.4);         // the hot zone sprinted
  EXPECT_NEAR(r.zone_performance_factor[1], 1.0, 1e-9); // idle zone untouched
}

TEST(Zonal, NeverTripsUnderSkewedOverload) {
  // Every zone bursting at once, at different magnitudes, with zero
  // available headroom: the Section V-B rule must keep the substation safe.
  DataCenterConfig config = small_config(4);
  config.dc_headroom = 0.0;
  workload::YahooTraceParams p1, p2;
  p1.burst_degree = 3.6;
  p1.burst_duration = Duration::minutes(15);
  p2.burst_degree = 2.0;
  p2.burst_duration = Duration::minutes(15);
  p2.seed = 0x1234;
  const TimeSeries heavy = workload::generate_yahoo_trace(p1);
  const TimeSeries light = workload::generate_yahoo_trace(p2);
  const RunResult r = run_zones(config, {{2, &heavy}, {2, &light}});
  EXPECT_FALSE(r.tripped);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  EXPECT_GT(r.zone_performance_factor[0], 1.0);
  EXPECT_GT(r.zone_performance_factor[1], 1.0);
}

void expect_identical(const sim::Recorder& a, const sim::Recorder& b) {
  ASSERT_EQ(a.channels(), b.channels());
  for (const std::string& channel : a.channels()) {
    const TimeSeries& x = a.series(channel);
    const TimeSeries& y = b.series(channel);
    ASSERT_EQ(x.size(), y.size()) << channel;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i].time.sec(), y[i].time.sec()) << channel;
      ASSERT_EQ(x[i].value, y[i].value) << channel << " sample " << i;
    }
  }
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.avg_achieved, b.avg_achieved);
  EXPECT_EQ(a.avg_achieved_nosprint, b.avg_achieved_nosprint);
  EXPECT_EQ(a.performance_factor, b.performance_factor);
  EXPECT_EQ(a.drop_fraction, b.drop_fraction);
  EXPECT_EQ(a.avg_sprint_degree, b.avg_sprint_degree);
  EXPECT_EQ(a.sprint_time.sec(), b.sprint_time.sec());
  for (std::size_t i = 0; i < a.phase_time.size(); ++i) {
    EXPECT_EQ(a.phase_time[i].sec(), b.phase_time[i].sec()) << i;
  }
  EXPECT_EQ(a.tripped, b.tripped);
  EXPECT_EQ(a.trip_time.sec(), b.trip_time.sec());
  EXPECT_EQ(a.ups_energy.j(), b.ups_energy.j());
  EXPECT_EQ(a.tes_saved_energy.j(), b.tes_saved_energy.j());
  EXPECT_EQ(a.pdu_overload_energy.j(), b.pdu_overload_energy.j());
  EXPECT_EQ(a.dc_overload_energy.j(), b.dc_overload_energy.j());
  EXPECT_EQ(a.peak_room_temperature.c(), b.peak_room_temperature.c());
  EXPECT_EQ(a.min_ups_soc, b.min_ups_soc);
  EXPECT_EQ(a.min_tes_soc, b.min_tes_soc);
  EXPECT_EQ(a.ups_discharge_events, b.ups_discharge_events);
  EXPECT_EQ(a.ups_equivalent_cycles, b.ups_equivalent_cycles);
  EXPECT_EQ(a.ups_max_depth, b.ups_max_depth);
  EXPECT_EQ(a.max_degradation, b.max_degradation);
  for (std::size_t i = 0; i < a.degradation_time.size(); ++i) {
    EXPECT_EQ(a.degradation_time[i].sec(), b.degradation_time[i].sec()) << i;
  }
  EXPECT_EQ(a.watchdog.checks, b.watchdog.checks);
  EXPECT_EQ(a.watchdog.violations, b.watchdog.violations);
  EXPECT_EQ(a.watchdog.first_message, b.watchdog.first_message);
  EXPECT_EQ(a.watchdog.first_time.sec(), b.watchdog.first_time.sec());
  EXPECT_EQ(a.zone_performance_factor, b.zone_performance_factor);
  expect_identical(a.recorder, b.recorder);
}

TEST(Zonal, OneZoneRunEqualsUniformRunBitForBit) {
  // One zone spanning the fleet is the uniform run, operation for
  // operation, with and without faults.
  workload::YahooTraceParams p;
  p.burst_degree = 2.6;
  p.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  const faults::FaultSchedule schedule =
      faults::FaultSchedule::random(7, trace.end_time(), 0.7);
  for (const double headroom : {0.0, 0.10}) {
    for (const bool faulted : {false, true}) {
      DataCenterConfig config = small_config(4);
      config.dc_headroom = headroom;
      RunOptions options;
      options.record = true;
      if (faulted) options.faults = &schedule;
      GreedyStrategy greedy;
      DataCenter dc(config);
      const RunResult uniform = dc.run(trace, &greedy, options);
      const RunResult zoned = dc.run({{4, &trace}}, &greedy, options);
      SCOPED_TRACE("headroom " + std::to_string(headroom) +
                   (faulted ? " faulted" : ""));
      EXPECT_TRUE(zoned.zone_performance_factor.empty());
      expect_identical(zoned, uniform);
    }
  }
}

TEST(Zonal, ConcentratedBurstBeatsUniformSpread) {
  // The same aggregate excess demand is easier to serve when concentrated
  // in one zone (its neighbours' unused substation budget flows to it) —
  // the scenario the paper motivates with bursts hosted "by only a few
  // servers".
  const DataCenterConfig config = small_config(4);

  // Concentrated: one zone at 4.0x for 10 min, three idle at 0.4.
  workload::YahooTraceParams hot_p;
  hot_p.burst_degree = 4.0;
  hot_p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(hot_p);
  const TimeSeries idle = flat(0.4, hot.end_time());
  const RunResult conc = run_zones(config, {{1, &hot}, {3, &idle}});

  EXPECT_FALSE(conc.tripped);
  // The hot zone gets deep sprinting: degree well above what a uniform
  // 4x-everywhere burst could sustain for 10 minutes.
  EXPECT_GT(conc.zone_performance_factor[0], 1.8);
}

TEST(Zonal, HotZoneSprintsWhenTheFacilityDemandStaysBelowOne) {
  // One hot PDU of eight: at the burst peak the PDU-weighted facility
  // demand is only 0.85, but the burst signal is the largest zone demand.
  TimeSeries hot;
  hot.push_back(Duration::zero(), 0.6);
  hot.push_back(Duration::minutes(5), 2.4);
  hot.push_back(Duration::minutes(15), 0.6);
  hot.push_back(Duration::minutes(20), 0.6);
  const double idle_level = (0.85 * 8.0 - 2.4) / 7.0;
  const TimeSeries idle = flat(idle_level, hot.end_time());
  const RunResult r = run_zones(small_config(8), {{1, &hot}, {7, &idle}},
                                {.record = true});
  const TimeSeries& facility = r.recorder.series("demand");
  double facility_peak = 0.0;
  for (std::size_t i = 0; i < facility.size(); ++i) {
    facility_peak = std::max(facility_peak, facility[i].value);
  }
  EXPECT_NEAR(facility_peak, 0.85, 1e-12);
  EXPECT_GT(r.sprint_time.min(), 5.0);
  EXPECT_GT(r.zone_performance_factor[0], 1.5);
  EXPECT_NEAR(r.zone_performance_factor[1], 1.0, 1e-9);
}

TEST(Zonal, SprintTimeCountsTicksWhereAnyZoneSprints) {
  workload::YahooTraceParams pa, pb;
  pa.burst_degree = 4.0;
  pa.burst_duration = Duration::minutes(10);
  pb.burst_degree = 2.0;
  pb.burst_start = Duration::minutes(12);  // overlaps the hot burst's end
  pb.burst_duration = Duration::minutes(5);
  pb.seed = 0xBEEF;
  const TimeSeries a = workload::generate_yahoo_trace(pa);
  const TimeSeries b = workload::generate_yahoo_trace(pb);
  const RunResult r =
      run_zones(small_config(8), {{1, &a}, {7, &b}}, {.record = true});
  const TimeSeries& d0 = r.recorder.series("zone0/degree");
  const TimeSeries& d1 = r.recorder.series("zone1/degree");
  ASSERT_EQ(d0.size(), d1.size());
  std::size_t sprinting = 0;
  for (std::size_t i = 0; i < d0.size(); ++i) {
    sprinting += d0[i].value > 1.0 || d1[i].value > 1.0 ? 1 : 0;
  }
  // The union of the two bursts: longer than either, shorter than both.
  EXPECT_GT(sprinting, 600u);
  EXPECT_LT(sprinting, 900u);
  EXPECT_DOUBLE_EQ(r.sprint_time.sec(),
                   static_cast<double>(sprinting) *
                       DataCenterConfig{}.control_period.sec());
}

TEST(Zonal, FacilityFieldsAggregateTheZones) {
  // Means weighted by PDUs for demand and degree; the worst bank for the
  // UPS state of charge and wear.
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(15);
  const TimeSeries hot = workload::generate_yahoo_trace(p);
  const TimeSeries idle = flat(0.4, hot.end_time());
  const RunResult r =
      run_zones(small_config(4), {{3, &idle}, {1, &hot}}, {.record = true});
  std::map<std::string, TimeSeries> series;
  for (const std::string& channel : r.recorder.channels()) {
    series.emplace(channel, r.recorder.series(channel));
  }
  double min_soc = 1.0;
  double max_heat = 0.0;
  for (std::size_t i = 0; i < series.at("demand").size(); ++i) {
    const auto at = [&](const std::string& channel) {
      return series.at(channel)[i].value;
    };
    EXPECT_NEAR(at("demand"), 0.75 * at("zone0/demand") + 0.25 * at("zone1/demand"),
                1e-12);
    EXPECT_NEAR(at("degree"), 0.75 * at("zone0/degree") + 0.25 * at("zone1/degree"),
                1e-12);
    EXPECT_NEAR(at("achieved_nosprint"),
                0.75 * std::min(at("zone0/demand"), 1.0) +
                    0.25 * std::min(at("zone1/demand"), 1.0),
                1e-12);
    EXPECT_EQ(at("ups_soc"), std::min(at("zone0/ups_soc"), at("zone1/ups_soc")));
    min_soc = std::min(min_soc, at("zone1/ups_soc"));
    max_heat = std::max(max_heat, at("pdu_cb_heat"));
    EXPECT_DOUBLE_EQ(at("zone0/ups_soc"), 1.0);  // the idle zone never discharges
  }
  // The hot zone is the last group: its bank and breaker are the worst.
  EXPECT_LT(min_soc, 0.9);
  EXPECT_EQ(r.min_ups_soc, min_soc);
  EXPECT_DOUBLE_EQ(r.ups_max_depth, 1.0 - min_soc);
  EXPECT_GT(r.ups_discharge_events, 0u);
  EXPECT_GT(r.ups_equivalent_cycles, 0.0);
  EXPECT_GT(max_heat, 0.0);
}

TEST(Zonal, CappedBaselinesRejectSeveralZones) {
  const TimeSeries d = flat(1.5);
  DataCenter dc(small_config(4));
  for (const Mode mode : {Mode::kPowerCapped, Mode::kDvfsCapped}) {
    EXPECT_THROW((void)dc.run({{2, &d}, {2, &d}}, nullptr, {.mode = mode}),
                 std::invalid_argument)
        << "mode " << static_cast<int>(mode);
    EXPECT_NO_THROW((void)dc.run({{4, &d}}, nullptr, {.mode = mode}));
  }
  for (const Mode mode : {Mode::kNoSprint, Mode::kUncontrolled}) {
    const RunResult r = dc.run({{2, &d}, {2, &d}}, nullptr, {.mode = mode});
    EXPECT_EQ(r.zone_performance_factor.size(), 2u)
        << "mode " << static_cast<int>(mode);
  }
}

// Parameterized safety sweep: any split of the fleet into two zones, any
// pair of burst magnitudes, any headroom — never trips, never starves a
// zone below its own demand-or-capacity baseline, never violates a
// watchdog invariant or the room threshold.
using ZonalParams = std::tuple<std::size_t /*zone A pdus of 4*/,
                               double /*degree A*/, double /*degree B*/,
                               double /*headroom*/>;

class ZonalSafety : public ::testing::TestWithParam<ZonalParams> {};

TEST_P(ZonalSafety, NeverTripsNeverStarves) {
  const auto [a_pdus, deg_a, deg_b, headroom] = GetParam();
  DataCenterConfig config = small_config(4);
  config.dc_headroom = headroom;
  workload::YahooTraceParams pa, pb;
  pa.burst_degree = deg_a;
  pa.burst_duration = Duration::minutes(10);
  pb.burst_degree = deg_b;
  pb.burst_duration = Duration::minutes(10);
  pb.seed = 0xBEEF;
  const TimeSeries ta = workload::generate_yahoo_trace(pa);
  const TimeSeries tb = workload::generate_yahoo_trace(pb);
  const RunResult r = run_zones(config, {{a_pdus, &ta}, {4 - a_pdus, &tb}});
  EXPECT_FALSE(r.tripped);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  expect_below_threshold(config, r);
  // Every zone performs at least as well as not sprinting at all.
  EXPECT_GE(r.zone_performance_factor[0], 1.0 - 1e-9);
  EXPECT_GE(r.zone_performance_factor[1], 1.0 - 1e-9);
  EXPECT_GE(r.performance_factor, 1.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZonalSafety,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}),
                       ::testing::Values(1.5, 3.0, 4.0),
                       ::testing::Values(1.2, 2.6),
                       ::testing::Values(0.0, 0.10)));

TEST(Zonal, StepExposesPerZoneState) {
  // The controller over a two-group plant: one demand per group in, each
  // group's committed operating point out; the chip PCM follows the
  // hottest group.
  DataCenterConfig config = small_config(4);
  power::PowerTopology::Params params = config.topology_params();
  params.group_sizes = {2, 2};
  compute::Fleet fleet(config.fleet);
  power::PowerTopology topology(params);
  thermal::TesTank tes("tes", config.tes_params());
  thermal::CoolingPlant cooling(config.cooling_params(&tes));
  thermal::RoomModel room(config.room_params());
  compute::PcmHeatSink pcm(config.chip_pcm);
  compute::PcmHeatSink hottest(config.chip_pcm);
  GreedyStrategy greedy;
  SprintingController ctl(config, {&fleet, &topology, &cooling, &tes, &room, &pcm},
                          &greedy, Mode::kControlled);
  EXPECT_THROW((void)ctl.step(Duration::zero(), 1.0, Duration::seconds(1)),
               std::invalid_argument);

  workload::YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(p);
  StepResult last;
  for (int i = 0; i < 6 * 60 + 30; ++i) {
    const Duration now = Duration::seconds(i);
    const double demands[] = {hot.at(now), 0.4};
    last = ctl.step(now, demands, Duration::seconds(1));
    hottest.step(ctl.group_ops()[0].per_server - fleet.server().non_cpu(),
                 Duration::seconds(1));
  }
  ASSERT_EQ(ctl.group_ops().size(), 2u);
  EXPECT_GT(ctl.group_ops()[0].degree, 1.0);
  EXPECT_DOUBLE_EQ(ctl.group_ops()[1].degree, 1.0);
  EXPECT_GT(topology.groups()[0].pdu.last_grid_load() +
                topology.groups()[0].pdu.last_ups_power(),
            topology.groups()[1].pdu.last_grid_load());
  EXPECT_DOUBLE_EQ(last.degree,
                   0.5 * ctl.group_ops()[0].degree + 0.5 * ctl.group_ops()[1].degree);
  EXPECT_GT(last.dc_load, Power::zero());
  // Whole seconds a copy holds 1 W over its sustainable power before it
  // exhausts: its unmelted capacity in joules, to the joule.
  const auto joules_left = [&](compute::PcmHeatSink copy) {
    int seconds = 0;
    for (; !copy.exhausted(); ++seconds) {
      copy.step(config.chip_pcm.sustainable + Power::watts(1.0),
                Duration::seconds(1));
    }
    return seconds;
  };
  EXPECT_LT(joules_left(pcm),
            joules_left(compute::PcmHeatSink(config.chip_pcm)));
  EXPECT_EQ(joules_left(pcm), joules_left(hottest));
}

TEST(Zonal, RecorderCapturesPerZoneChannels) {
  workload::YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(p);
  const TimeSeries idle = flat(0.4, hot.end_time());
  const RunResult r =
      run_zones(small_config(4), {{2, &hot}, {2, &idle}}, {.record = true});
  const sim::Recorder& recorder = r.recorder;

  // Every channel with_zonal_channels names for a 2-zone run must be
  // populated (one sample per control period), plus the facility totals.
  const std::vector<std::string> channels =
      obs::with_zonal_channels({"dc_load_mw", "cooling_mw"}, 2);
  const std::size_t ticks = static_cast<std::size_t>(
      hot.end_time().sec() / DataCenterConfig{}.control_period.sec());
  for (const std::string& channel : channels) {
    ASSERT_TRUE(recorder.has(channel)) << channel;
    EXPECT_EQ(recorder.series(channel).size(), ticks) << channel;
  }

  // The hot zone sprinted, the idle zone never did, and both margins stay
  // positive (no breaker ever gets within tripping distance).
  const TimeSeries& hot_degree = recorder.series("zone0/degree");
  const TimeSeries& idle_degree = recorder.series("zone1/degree");
  double hot_max = 0.0, idle_max = 0.0;
  for (std::size_t i = 0; i < hot_degree.size(); ++i) {
    hot_max = std::max(hot_max, hot_degree[i].value);
    idle_max = std::max(idle_max, idle_degree[i].value);
  }
  EXPECT_GT(hot_max, 1.0);
  EXPECT_DOUBLE_EQ(idle_max, 1.0);
  for (std::size_t z = 0; z < 2; ++z) {
    const TimeSeries& margin =
        recorder.series("zone" + std::to_string(z) + "/cb_trip_margin_s");
    for (std::size_t i = 0; i < margin.size(); ++i) {
      EXPECT_GT(margin[i].value, 0.0);
      EXPECT_LE(margin[i].value, 3600.0);
    }
  }

  // The recorded channels export as change-only counter tracks without
  // loss: each zone track, step-expanded over the run's ticks, gives back
  // every recorded sample bit for bit.
  obs::Tracer tracer;
  obs::export_counters(recorder, tracer, {.channels = channels});
  EXPECT_LT(tracer.events().size(), channels.size() * ticks);
  for (const std::string& channel : obs::with_zonal_channels({}, 2)) {
    const TimeSeries& series = recorder.series(channel);
    EXPECT_TRUE(test::same_bits(test::step_expand(tracer.events(), channel,
                                                  series),
                                test::held_samples(series)))
        << channel;
  }
}

TEST(Zonal, WithZonalChannelsNamesZonePrefixedTracks) {
  const std::vector<std::string> channels =
      obs::with_zonal_channels({"dc_load_mw"}, 3);
  EXPECT_EQ(channels.size(), 1 + 3 * obs::kZonalChannelSuffixes.size());
  EXPECT_EQ(channels.front(), "dc_load_mw");
  EXPECT_EQ(channels[1], "zone0/demand");
  EXPECT_EQ(channels.back(), "zone2/cb_trip_margin_s");
  // Zero zones is the identity.
  EXPECT_EQ(obs::with_zonal_channels({"x"}, 0),
            std::vector<std::string>{"x"});
}

}  // namespace
}  // namespace dcs::core
