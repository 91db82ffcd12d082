#include "core/datacenter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault.h"
#include "faults/schedule.h"
#include "obs/trace.h"
#include "sim/component.h"
#include "workload/ms_trace.h"
#include "workload/yahoo_trace.h"

namespace dcs::core {
namespace {

DataCenterConfig small_config() {
  DataCenterConfig c;
  c.fleet.pdu_count = 4;
  return c;
}

TEST(DataCenter, NoSprintBaselineIsUnity) {
  DataCenter dc(small_config());
  const RunResult r = dc.run(workload::generate_ms_trace(), nullptr,
                             {.mode = Mode::kNoSprint});
  EXPECT_NEAR(r.performance_factor, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.sprint_time.sec(), 0.0);
  EXPECT_FALSE(r.tripped);
}

TEST(DataCenter, GreedySprintBeatsNoSprint) {
  DataCenter dc(small_config());
  GreedyStrategy greedy;
  const RunResult r = dc.run(workload::generate_ms_trace(), &greedy);
  EXPECT_GT(r.performance_factor, 1.4);
  EXPECT_GT(r.sprint_time.min(), 3.0);
  EXPECT_FALSE(r.tripped);
}

TEST(DataCenter, RunsAreIndependent) {
  // Fresh subsystem state per run: repeating a run gives identical results.
  DataCenter dc(small_config());
  GreedyStrategy greedy;
  const TimeSeries trace = workload::generate_ms_trace();
  const RunResult a = dc.run(trace, &greedy);
  const RunResult b = dc.run(trace, &greedy);
  EXPECT_DOUBLE_EQ(a.performance_factor, b.performance_factor);
  EXPECT_DOUBLE_EQ(a.ups_energy.j(), b.ups_energy.j());
}

TEST(DataCenter, ResultsInvariantToPduCount) {
  // The documented scale invariance: 2 PDUs and 16 PDUs give the same
  // normalized results.
  DataCenterConfig c2 = small_config();
  c2.fleet.pdu_count = 2;
  DataCenterConfig c16 = small_config();
  c16.fleet.pdu_count = 16;
  GreedyStrategy greedy;
  const TimeSeries trace = workload::generate_yahoo_trace();
  const RunResult a = DataCenter(c2).run(trace, &greedy);
  const RunResult b = DataCenter(c16).run(trace, &greedy);
  EXPECT_NEAR(a.performance_factor, b.performance_factor, 1e-6);
  EXPECT_NEAR(a.sprint_time.sec(), b.sprint_time.sec(), 1.5);
}

TEST(DataCenter, NormalizedResultsAgreeAcrossPduCounts) {
  // The plant is one weighted PDU group, so the PDU count enters a run only
  // through totals (state x count): every normalized result agrees across
  // counts to rounding, and so does the paper's 909 PDUs split into zones
  // {300, 609} that carry the same trace. Three MS and three Yahoo seeds,
  // Greedy and three constant bounds, each with and without a random fault
  // schedule.
  std::vector<TimeSeries> traces;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    workload::MsTraceParams ms;
    ms.seed = seed;
    traces.push_back(workload::generate_ms_trace(ms));
    workload::YahooTraceParams yahoo;
    yahoo.seed = seed;
    traces.push_back(workload::generate_yahoo_trace(yahoo));
  }
  const auto make_strategy = [](int s) -> std::unique_ptr<Strategy> {
    if (s == 0) return std::make_unique<GreedyStrategy>();
    return std::make_unique<ConstantBoundStrategy>(1.0 + s);
  };
  const auto agree = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  };
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const faults::FaultSchedule schedule =
        faults::FaultSchedule::random(100 + t, traces[t].end_time(), 0.5);
    for (int s = 0; s < 4; ++s) {
      for (const bool faulted : {false, true}) {
        RunOptions options;
        if (faulted) options.faults = &schedule;
        std::vector<RunResult> results;
        for (const std::size_t pdus : {2u, 8u, 909u, 4096u}) {
          DataCenterConfig config;
          config.fleet.pdu_count = pdus;
          const auto strategy = make_strategy(s);
          results.push_back(
              DataCenter(config).run(traces[t], strategy.get(), options));
        }
        {
          DataCenterConfig config;
          config.fleet.pdu_count = 909;
          const auto strategy = make_strategy(s);
          results.push_back(DataCenter(config).run(
              {{300, &traces[t]}, {609, &traces[t]}}, strategy.get(), options));
          for (const double zone_factor : results.back().zone_performance_factor) {
            EXPECT_PRED2(agree, zone_factor, results.back().performance_factor);
          }
        }
        const RunResult& ref = results.front();
        for (std::size_t i = 1; i < results.size(); ++i) {
          const RunResult& r = results[i];
          SCOPED_TRACE("trace " + std::to_string(t) + " strategy " +
                       std::to_string(s) + (faulted ? " faulted" : "") +
                       " run " + std::to_string(i));
          EXPECT_PRED2(agree, r.performance_factor, ref.performance_factor);
          EXPECT_PRED2(agree, r.avg_achieved, ref.avg_achieved);
          EXPECT_PRED2(agree, r.drop_fraction, ref.drop_fraction);
          EXPECT_PRED2(agree, r.avg_sprint_degree, ref.avg_sprint_degree);
          EXPECT_PRED2(agree, r.min_ups_soc, ref.min_ups_soc);
          EXPECT_PRED2(agree, r.min_tes_soc, ref.min_tes_soc);
          EXPECT_PRED2(agree, r.peak_room_temperature.c(),
                       ref.peak_room_temperature.c());
          for (std::size_t p = 0; p < r.phase_time.size(); ++p) {
            EXPECT_PRED2(agree, r.phase_time[p].sec(), ref.phase_time[p].sec());
          }
          EXPECT_EQ(r.tripped, ref.tripped);
          EXPECT_EQ(r.trip_time.sec(), ref.trip_time.sec());
          EXPECT_EQ(r.watchdog.violations, ref.watchdog.violations);
        }
      }
    }
  }
}

TEST(DataCenter, RecorderChannelsPresent) {
  DataCenter dc(small_config());
  GreedyStrategy greedy;
  const RunResult r = dc.run(workload::generate_yahoo_trace(), &greedy,
                             {.record = true});
  for (const char* channel :
       {"demand", "achieved", "achieved_nosprint", "degree", "bound", "cores",
        "phase", "server_mw", "cooling_mw", "ups_mw", "dc_load_mw", "room_c",
        "ups_soc", "tes_soc", "dc_cb_heat", "pdu_cb_heat", "supply",
        "degradation"}) {
    EXPECT_TRUE(r.recorder.has(channel)) << channel;
  }
  // Injector-only channels stay absent on a fault-free run.
  EXPECT_FALSE(r.recorder.has("faults_active"));
  EXPECT_FALSE(r.recorder.has("measured_demand"));
  EXPECT_EQ(r.recorder.series("demand").size(), 1800u);
}

TEST(DataCenter, RecorderEmptyWithoutOptIn) {
  DataCenter dc(small_config());
  GreedyStrategy greedy;
  const RunResult r = dc.run(workload::generate_yahoo_trace(), &greedy);
  EXPECT_TRUE(r.recorder.channels().empty());
}

/// Ticks whose value differs from the tick before, the first against 0
/// (SprintPhase::kNormal and DegradationLevel::kNominal).
std::size_t changes_from_zero(const TimeSeries& series) {
  std::size_t count = 0;
  double prev = 0.0;
  for (const Sample& s : series.samples()) {
    count += s.value != prev ? 1 : 0;
    prev = s.value;
  }
  return count;
}

TEST(DataCenter, RecordedRunWatermarksMatchItsChannels) {
  // A faulted burst: the chiller loses 40% for four minutes, and a noisy
  // demand sensor stays on past the end of the run.
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  faults::FaultSchedule schedule;
  schedule.add({faults::FaultKind::kChillerFailure, Duration::minutes(9),
                Duration::minutes(13), 0.4});
  schedule.add({faults::FaultKind::kSensorNoisy, Duration::minutes(6),
                trace.end_time() + Duration::minutes(1), 0.15,
                faults::SensorChannel::kDemand});
  const DataCenterConfig config = small_config();
  DataCenter dc(config);
  GreedyStrategy greedy;
  const RunResult r =
      dc.run(trace, &greedy, {.record = true, .faults = &schedule});

  const sim::Recorder& rec = r.recorder;
  const auto last = [&](const char* channel) {
    return rec.series(channel).samples().back().value;
  };
  ASSERT_EQ(rec.series("degree").size(), 1800u);

  // The run's watermarks are its channels' minima, below where they end.
  EXPECT_EQ(r.min_ups_soc, rec.series("ups_soc").min_value());
  EXPECT_GT(r.min_ups_soc, 0.0);
  EXPECT_LT(r.min_ups_soc, last("ups_soc"));
  EXPECT_EQ(r.min_tes_soc, rec.series("tes_soc").min_value());
  EXPECT_GT(r.min_tes_soc, 0.0);
  EXPECT_LT(r.min_tes_soc, last("tes_soc"));
  const double margin_min = rec.series("cb_trip_margin_s").min_value();
  EXPECT_GT(margin_min, 0.0);
  EXPECT_LT(margin_min, 3600.0);  // the burst overloads the breaker
  EXPECT_EQ(last("faults_active"), 1.0);
  EXPECT_GT(
      (r.peak_room_temperature - config.room_params().setpoint).c(), 0.0);

  // The controller moved through its phases and down the ladder.
  EXPECT_GT(changes_from_zero(rec.series("phase")), 0u);
  EXPECT_GT(changes_from_zero(rec.series("degradation")), 0u);
}

/// One tick seen by a component or the on_step hook.
struct Tick {
  std::string who;
  Duration now;
  Duration dt;

  friend bool operator==(const Tick&, const Tick&) = default;
};

/// Appends each tick it sees to a shared journal.
class JournalComponent final : public sim::Component {
 public:
  JournalComponent(std::string name, std::vector<Tick>& journal)
      : name_(std::move(name)), journal_(journal) {}
  void tick(Duration now, Duration dt) override {
    journal_.push_back({name_, now, dt});
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }

 private:
  std::string name_;
  std::vector<Tick>& journal_;
};

TEST(DataCenter, ExtraComponentsTickAfterTheControlBodyInOrder) {
  // A 0.1 s period does not divide 1 s exactly in binary: the run adds dt
  // to a clock that starts at zero, and ten additions land just short of
  // 1 s, so 11 periods start before it.
  DataCenterConfig config = small_config();
  config.control_period = Duration::seconds(0.1);
  DataCenter dc(config);
  TimeSeries demand;
  demand.push_back(Duration::zero(), 0.5);
  demand.push_back(Duration::seconds(1), 0.5);

  std::vector<Tick> journal;
  JournalComponent first("first", journal);
  JournalComponent second("second", journal);
  obs::Tracer tracer;
  RunOptions opts;
  opts.mode = Mode::kNoSprint;
  opts.tracer = &tracer;
  opts.components = {&first, &second};
  opts.on_step = [&](Duration now, Duration dt, const StepResult&) {
    journal.push_back({"on_step", now, dt});
  };
  (void)dc.run(demand, nullptr, opts);

  // Bit for bit: the same accumulated clock, the control body's on_step
  // first, then the components in vector order.
  std::vector<Tick> expected;
  const Duration dt = config.control_period;
  for (Duration now = Duration::zero(); now < demand.end_time(); now += dt) {
    for (const char* who : {"on_step", "first", "second"}) {
      expected.push_back({who, now, dt});
    }
  }
  ASSERT_EQ(expected.size(), 3u * 11u);
  EXPECT_EQ(journal, expected);

  // The run-end instant reports the periods run.
  const auto end = std::find_if(
      tracer.events().begin(), tracer.events().end(),
      [](const obs::TraceEvent& e) { return e.name == "run-end"; });
  ASSERT_NE(end, tracer.events().end());
  EXPECT_EQ(end->cat, "engine");
  ASSERT_EQ(end->args.size(), 2u);
  EXPECT_EQ(end->args[0].key, "ticks");
  EXPECT_EQ(end->args[0].value, "11");
  EXPECT_EQ(end->args[1].key, "stopped");
  EXPECT_EQ(end->args[1].value, "false");

  // A null component is a caller error.
  opts.components = {&first, nullptr};
  EXPECT_THROW((void)dc.run(demand, nullptr, opts), std::invalid_argument);
}

TEST(DataCenter, AchievedNeverExceedsDemand) {
  DataCenter dc(small_config());
  GreedyStrategy greedy;
  const RunResult r = dc.run(workload::generate_ms_trace(), &greedy,
                             {.record = true});
  const TimeSeries& demand = r.recorder.series("demand");
  const TimeSeries& achieved = r.recorder.series("achieved");
  for (std::size_t i = 0; i < demand.size(); ++i) {
    ASSERT_LE(achieved[i].value, demand[i].value + 1e-9);
  }
}

TEST(DataCenter, UncontrolledTripsOnMsTrace) {
  DataCenter dc(small_config());
  const RunResult r = dc.run(workload::generate_ms_trace(), nullptr,
                             {.mode = Mode::kUncontrolled});
  EXPECT_TRUE(r.tripped);
  EXPECT_FALSE(r.trip_time.is_infinite());
  EXPECT_LT(r.performance_factor, 0.6);  // the shutdown is disastrous
}

TEST(DataCenter, SocExtremaTracked) {
  DataCenter dc(small_config());
  GreedyStrategy greedy;
  const RunResult r = dc.run(workload::generate_ms_trace(), &greedy);
  EXPECT_LT(r.min_ups_soc, 0.5);
  EXPECT_GE(r.min_ups_soc, 0.0);
  EXPECT_LE(r.min_tes_soc, 1.0);
  EXPECT_GE(r.min_tes_soc, 0.0);
}

TEST(DataCenter, DropFractionConsistentWithPerformance) {
  DataCenter dc(small_config());
  GreedyStrategy greedy;
  const RunResult nosprint = dc.run(workload::generate_yahoo_trace(), nullptr,
                                    {.mode = Mode::kNoSprint});
  const RunResult sprint = dc.run(workload::generate_yahoo_trace(), &greedy);
  EXPECT_LT(sprint.drop_fraction, nosprint.drop_fraction);
}

TEST(DataCenter, AvgSprintDegreeReported) {
  DataCenter dc(small_config());
  GreedyStrategy greedy;
  const RunResult r = dc.run(workload::generate_yahoo_trace(), &greedy);
  EXPECT_GT(r.avg_sprint_degree, 1.2);
  EXPECT_LE(r.avg_sprint_degree, 4.0);
  const RunResult flat = dc.run(
      TimeSeries{{{Duration::zero(), 0.5}, {Duration::minutes(5), 0.5}}},
      &greedy);
  EXPECT_DOUBLE_EQ(flat.avg_sprint_degree, 1.0);
}

TEST(DataCenter, BudgetDegreeSecondsPositiveAndStable) {
  DataCenter dc(small_config());
  const double a = dc.budget_degree_seconds();
  const double b = dc.budget_degree_seconds();
  EXPECT_GT(a, 0.0);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(DataCenter, NoTesShortensSprint) {
  // Section V: "For some data centers without TES ... we can still enable
  // sprinting (though the duration is shorter)". The effect shows when the
  // thermal budget binds before the stored electrical energy does, so use a
  // generous battery and a long moderate burst.
  DataCenterConfig with = small_config();
  with.battery_per_server.capacity = Charge::amp_hours(2.0);
  DataCenterConfig without = with;
  without.has_tes = false;
  workload::YahooTraceParams p;
  p.length = Duration::minutes(32);
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(24);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  ConstantBoundStrategy bound(2.4);
  const RunResult rw = DataCenter(with).run(trace, &bound);
  const RunResult ro = DataCenter(without).run(trace, &bound);
  EXPECT_GT(rw.performance_factor, ro.performance_factor);
  EXPECT_GT(rw.sprint_time, ro.sprint_time);
  EXPECT_GT(ro.performance_factor, 1.0);  // still better than nothing
}

TEST(DataCenter, EmptyTraceRejected) {
  DataCenter dc(small_config());
  EXPECT_THROW((void)dc.run(TimeSeries{}, nullptr, {.mode = Mode::kNoSprint}),
               std::invalid_argument);
}

TEST(DataCenter, UpsEnergyWithinCapacity) {
  DataCenter dc(small_config());
  GreedyStrategy greedy;
  const RunResult r = dc.run(workload::generate_ms_trace(), &greedy);
  const DataCenterConfig& c = dc.config();
  const Energy bank =
      c.battery_per_server.capacity.at_volts(c.battery_per_server.bus_voltage) *
      static_cast<double>(c.fleet.servers_per_pdu * c.fleet.pdu_count);
  // Slow recharge can top the banks up a little between bursts, so allow a
  // modest margin above one full capacity.
  EXPECT_LE(r.ups_energy.j(), bank.j() * 1.2);
}

}  // namespace
}  // namespace dcs::core
