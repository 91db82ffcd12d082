// DataCenter-level fault injection: the degradation ladder, the invariant
// watchdog, the zero-cost guarantee (a run without active faults is
// bit-identical to a run without an injector at all), and one trace record
// per rule firing.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/datacenter.h"
#include "faults/fault.h"
#include "faults/schedule.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "power/generator.h"
#include "workload/yahoo_trace.h"

namespace dcs::core {
namespace {

using faults::Fault;
using faults::FaultKind;
using faults::FaultSchedule;
using faults::SensorChannel;

DataCenterConfig small_config() {
  DataCenterConfig c;
  c.fleet.pdu_count = 2;
  return c;
}

TimeSeries burst_trace() {
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(15);
  return workload::generate_yahoo_trace(p);
}

Fault window_min(FaultKind kind, double start_min, double end_min,
                 double magnitude,
                 SensorChannel channel = SensorChannel::kDemand) {
  return Fault{kind, Duration::minutes(start_min), Duration::minutes(end_min),
               magnitude, channel};
}

// ---------------------------------------------------------------------------
// Zero-cost guarantee
// ---------------------------------------------------------------------------

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.avg_achieved, b.avg_achieved);
  EXPECT_EQ(a.performance_factor, b.performance_factor);
  EXPECT_EQ(a.avg_sprint_degree, b.avg_sprint_degree);
  EXPECT_EQ(a.drop_fraction, b.drop_fraction);
  EXPECT_EQ(a.sprint_time.sec(), b.sprint_time.sec());
  EXPECT_EQ(a.ups_energy.j(), b.ups_energy.j());
  EXPECT_EQ(a.tes_saved_energy.j(), b.tes_saved_energy.j());
  EXPECT_EQ(a.pdu_overload_energy.j(), b.pdu_overload_energy.j());
  EXPECT_EQ(a.dc_overload_energy.j(), b.dc_overload_energy.j());
  EXPECT_EQ(a.min_ups_soc, b.min_ups_soc);
  EXPECT_EQ(a.min_tes_soc, b.min_tes_soc);
  EXPECT_EQ(a.peak_room_temperature.c(), b.peak_room_temperature.c());
  EXPECT_EQ(a.tripped, b.tripped);
  for (std::size_t i = 0; i < a.phase_time.size(); ++i) {
    EXPECT_EQ(a.phase_time[i].sec(), b.phase_time[i].sec());
  }
  for (const char* channel : {"degree", "achieved", "room_c", "dc_cb_heat",
                              "ups_soc", "tes_soc"}) {
    const TimeSeries& sa = a.recorder.series(channel);
    const TimeSeries& sb = b.recorder.series(channel);
    ASSERT_EQ(sa.size(), sb.size()) << channel;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i].value, sb[i].value) << channel << " @ " << i;
    }
  }
}

TEST(FaultFreeFastPath, InjectorWithInactiveScheduleIsBitIdentical) {
  DataCenter dc(small_config());
  const TimeSeries trace = burst_trace();
  GreedyStrategy greedy;
  const RunResult plain = dc.run(trace, &greedy, {.record = true});

  // Every fault window sits after the trace ends: the injector is attached
  // and runs every tick, yet must perturb nothing.
  FaultSchedule late;
  const double end_min = trace.end_time().min();
  late.add(window_min(FaultKind::kUpsBankOutage, end_min + 1, end_min + 5, 0.9));
  late.add(window_min(FaultKind::kChillerFailure, end_min + 1, end_min + 5, 1.0));
  late.add(window_min(FaultKind::kSensorDropped, end_min + 1, end_min + 5, 1.0));
  GreedyStrategy greedy2;
  const RunResult with = dc.run(trace, &greedy2,
                                {.record = true, .faults = &late});
  expect_identical(plain, with);
  EXPECT_EQ(with.max_degradation, DegradationLevel::kNominal);
  EXPECT_EQ(with.degradation_time[0].sec(), trace.end_time().sec());
  EXPECT_TRUE(with.watchdog.ok());
  // The injector-only channels exist but report no activity.
  const TimeSeries& fa = with.recorder.series("faults_active");
  for (const Sample& s : fa.samples()) ASSERT_EQ(s.value, 0.0);
}

TEST(FaultFreeFastPath, EmptyScheduleSkipsTheInjector) {
  DataCenter dc(small_config());
  const TimeSeries trace = burst_trace();
  const FaultSchedule empty;
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy, {.faults = &empty});
  EXPECT_TRUE(r.recorder.channels().empty());
  EXPECT_EQ(r.max_degradation, DegradationLevel::kNominal);
  EXPECT_TRUE(r.watchdog.ok());
  EXPECT_GT(r.watchdog.checks, 0u);
}

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

TEST(DegradationLadder, MildUpsOutageShedsWithoutTripping) {
  DataCenter dc(small_config());
  const TimeSeries trace = burst_trace();
  FaultSchedule s;
  s.add(window_min(FaultKind::kUpsBankOutage, 7, 13, 0.4));
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy, {.record = true, .faults = &s});
  EXPECT_FALSE(r.tripped);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  EXPECT_GE(r.max_degradation, DegradationLevel::kDerated);
  EXPECT_LT(r.max_degradation, DegradationLevel::kPowerCapFallback);
  // Time was spent on the ladder exactly while the fault was active.
  Duration on_ladder = Duration::zero();
  for (std::size_t i = 1; i < r.degradation_time.size(); ++i) {
    on_ladder += r.degradation_time[i];
  }
  EXPECT_GE(on_ladder.min(), 5.9);
  // Ladder time + nominal time covers the whole run.
  EXPECT_NEAR((on_ladder + r.degradation_time[0]).sec(),
              trace.end_time().sec(), 1e-6);
}

TEST(DegradationLadder, SevereFaultEndsTheSprint) {
  DataCenter dc(small_config());
  const TimeSeries trace = burst_trace();
  FaultSchedule s;
  // Chiller failure at magnitude 0.6: severity 0.6 >= 0.5 ends the sprint.
  s.add(window_min(FaultKind::kChillerFailure, 8, 12, 0.6));
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy, {.record = true, .faults = &s});
  EXPECT_FALSE(r.tripped);
  EXPECT_GE(r.max_degradation, DegradationLevel::kSprintEnded);
  const TimeSeries& degree = r.recorder.series("degree");
  // Sprinting before the fault; back to normal cores during it.
  EXPECT_GT(degree.at(Duration::minutes(7)), 1.5);
  EXPECT_DOUBLE_EQ(degree.at(Duration::minutes(9)), 1.0);
  EXPECT_DOUBLE_EQ(degree.at(Duration::minutes(11.9)), 1.0);
}

TEST(DegradationLadder, NuisanceBiasNeverTripsTheGovernor) {
  DataCenter dc(small_config());
  const TimeSeries trace = burst_trace();
  FaultSchedule s;
  // A marginal breaker element arrives mid-overload: the governor re-plans
  // against the biased threshold instead of tripping.
  s.add(window_min(FaultKind::kBreakerNuisanceBias, 7, 12, 0.3));
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy, {.faults = &s});
  EXPECT_FALSE(r.tripped);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
}

TEST(DegradationLadder, CriticalChillerLossWithoutTesFallsBackToPowerCap) {
  DataCenterConfig config = small_config();
  config.has_tes = false;
  DataCenter dc(config);
  const TimeSeries trace = burst_trace();
  FaultSchedule s;
  // 60 % of the chiller gone and no TES: every extra watt shortens the time
  // to the room threshold, so the ladder's last rung engages.
  s.add(window_min(FaultKind::kChillerFailure, 6, 18, 0.6));
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy, {.record = true, .faults = &s});
  EXPECT_FALSE(r.tripped);
  EXPECT_EQ(r.max_degradation, DegradationLevel::kPowerCapFallback);
  EXPECT_GT(r.degradation_time[4].min(), 5.0);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  // In the fallback the fleet parks at normal cores.
  const TimeSeries& degree = r.recorder.series("degree");
  EXPECT_DOUBLE_EQ(degree.at(Duration::minutes(10)), 1.0);
}

TEST(DegradationLadder, WatchdogReportsUnavoidableOverheat) {
  // Just under half the chiller lost, no TES, demand at capacity: even
  // normal-core operation overheats the room eventually. Nothing the
  // controller can shed avoids it — the watchdog must say so instead of the
  // run aborting or reporting silently wrong numbers.
  DataCenterConfig config = small_config();
  config.has_tes = false;
  DataCenter dc(config);
  TimeSeries trace;
  trace.push_back(Duration::zero(), 1.0);
  trace.push_back(Duration::minutes(35), 1.0);
  FaultSchedule s;
  s.add(window_min(FaultKind::kChillerFailure, 5, 35, 0.49));
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy, {.faults = &s});
  EXPECT_FALSE(r.tripped);
  EXPECT_FALSE(r.watchdog.ok());
  EXPECT_NE(r.watchdog.first_message.find("room"), std::string::npos);
  EXPECT_GT(r.peak_room_temperature.c(), 35.0);  // setpoint 25 + threshold 10
}

TEST(DegradationLadder, StaleDemandSensorBlindsTheControllerSafely) {
  DataCenter dc(small_config());
  const TimeSeries trace = burst_trace();
  FaultSchedule s;
  // The demand sensor freezes before the burst arrives: the controller keeps
  // reading the quiet baseline and must simply not sprint — blindness can
  // cost performance but never safety.
  s.add(window_min(FaultKind::kSensorStale, 4, 12, 1.0,
                   SensorChannel::kDemand));
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy, {.record = true, .faults = &s});
  EXPECT_FALSE(r.tripped);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  // measured_demand latched the pre-burst baseline while true demand burst.
  const TimeSeries& md = r.recorder.series("measured_demand");
  const TimeSeries& d = r.recorder.series("demand");
  const Duration probe = Duration::minutes(9);
  EXPECT_GT(d.at(probe), 3.0);
  EXPECT_LT(md.at(probe), 1.0);
  // Blind to the burst, the controller holds normal cores.
  EXPECT_DOUBLE_EQ(r.recorder.series("degree").at(probe), 1.0);
}

TEST(DegradationLadder, GeneratorStartFailureStillBridgedByUps) {
  DataCenterConfig config = small_config();
  DataCenter dc(config);
  const TimeSeries trace = burst_trace();
  TimeSeries supply;
  supply.push_back(Duration::zero(), 1.0);
  supply.push_back(Duration::minutes(7), 0.85);
  supply.push_back(Duration::minutes(12), 1.0);
  supply.push_back(trace.end_time(), 1.0);
  power::DieselGenerator generator(
      "gen", {.rated = config.dc_rated() * 0.5,
              .start_delay = Duration::seconds(45)});
  FaultSchedule s;
  s.add(window_min(FaultKind::kGeneratorStartFailure, 0, 30, 1.0));
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy,
                             {.record = true,
                              .supply_fraction = &supply,
                              .generator = &generator,
                              .faults = &s});
  EXPECT_FALSE(r.tripped);
  EXPECT_FALSE(generator.running());  // the start never completed
  EXPECT_LT(r.min_ups_soc, 1.0);      // the UPS carried the shortfall
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  // The dip ends the sprint; the baseline load rides through on the UPS.
  EXPECT_DOUBLE_EQ(r.recorder.series("degree").at(Duration::minutes(9)), 1.0);
}

// ---------------------------------------------------------------------------
// Tracing: one record per rule firing
// ---------------------------------------------------------------------------

TEST(FaultTrace, EachRuleFiringIsOneDecisionRecord) {
  // A burst under a UPS outage and a chiller loss moves the ladder and
  // screens the DC breaker; an unavoidable overheat trips the watchdog.
  // Each of those rule firings is a DecisionRecord, and no plain instant
  // repeats it. The fault past the trace's end never becomes active.
  struct Case {
    DataCenterConfig config;
    TimeSeries demand;
    FaultSchedule faults;
    std::size_t active_faults = 0;
  };
  std::vector<Case> cases(2);
  cases[0].config = small_config();
  cases[0].demand = burst_trace();
  cases[0].faults.add(window_min(FaultKind::kUpsBankOutage, 7, 13, 0.4));
  cases[0].faults.add(window_min(FaultKind::kChillerFailure, 15, 18, 0.6));
  cases[0].faults.add(window_min(FaultKind::kBreakerDerating, 100, 110, 0.2));
  cases[0].active_faults = 2;
  cases[1].config = small_config();
  cases[1].config.has_tes = false;
  cases[1].demand.push_back(Duration::zero(), 1.0);
  cases[1].demand.push_back(Duration::minutes(35), 1.0);
  cases[1].faults.add(window_min(FaultKind::kChillerFailure, 5, 35, 0.49));
  cases[1].active_faults = 1;

  std::map<std::string, std::size_t> decisions_seen;
  for (const Case& c : cases) {
    DataCenter dc(c.config);
    obs::Tracer tracer;
    obs::DecisionLog decisions(&tracer);
    GreedyStrategy greedy;
    (void)dc.run(c.demand, &greedy,
                 {.record = true,
                  .faults = &c.faults,
                  .tracer = &tracer,
                  .decisions = &decisions});
    std::map<std::string, std::size_t> names;
    for (const obs::TraceEvent& e : tracer.events()) {
      ++names[e.name];
      if (e.cat == "decision") ++decisions_seen[e.name];
    }
    for (const char* twin : {"inject", "clear", "violation", "degradation",
                             "trip-margin-low", "trip-margin-recovered"}) {
      EXPECT_EQ(names.count(twin), 0u) << twin << " repeats a decision";
    }
    EXPECT_EQ(names["fault-inject"], c.active_faults);
  }
  // Every twin's decision fired somewhere, so each absence above counts.
  EXPECT_GT(decisions_seen["fault-clear"], 0u);
  EXPECT_GT(decisions_seen["ladder-derate"] + decisions_seen["ladder-shed"] +
                decisions_seen["ladder-sprint-ended"],
            0u);
  EXPECT_GT(decisions_seen["breaker-screen"], 0u);
  EXPECT_GT(decisions_seen["watchdog-violation"], 0u);
}

}  // namespace
}  // namespace dcs::core
