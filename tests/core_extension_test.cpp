// Tests for the extension features built on top of the paper's design:
// the budget-paced planner (the paper's optimization future work), the
// fully-online adaptive strategy, supply-disturbance handling, and the
// parent/child CB budget allocator.
#include <gtest/gtest.h>

#include <vector>

#include "core/budget_paced_strategy.h"
#include "core/cb_budget.h"
#include "core/datacenter.h"
#include "core/online_strategy.h"
#include "core/oracle.h"
#include "power/generator.h"
#include "power/lifetime.h"
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

// ---------------------------------------------------------------------------
// BudgetPacedStrategy
// ---------------------------------------------------------------------------

TEST(BudgetPaced, ShortBurstSprintsFreely) {
  const DataCenterConfig config = small_config();
  workload::YahooTraceParams p;
  p.burst_duration = Duration::minutes(1);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  BudgetPacedStrategy planner(trace, config);
  // A one-minute burst cannot drain the pools: the plan runs uncapped
  // enough to cover the demand (degree for demand 3.2).
  EXPECT_GE(planner.planned_cap(), 3.2);
  EXPECT_NEAR(planner.planned_duration().min(), 1.0, 0.2);
}

TEST(BudgetPaced, LongBurstYieldsInteriorCap) {
  const DataCenterConfig config = small_config();
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  BudgetPacedStrategy planner(trace, config);
  EXPECT_LT(planner.planned_cap(), 3.5);
  EXPECT_GT(planner.planned_cap(), 1.5);
}

TEST(BudgetPaced, TracksOracleWithoutSimulating) {
  // The planner's closed-form cap should land within a few percent of the
  // Oracle's exhaustively-searched performance on long bursts.
  const DataCenterConfig config = small_config();
  DataCenter dc(config);
  for (double degree : {2.8, 3.2, 3.6}) {
    workload::YahooTraceParams p;
    p.burst_degree = degree;
    p.burst_duration = Duration::minutes(15);
    const TimeSeries trace = workload::generate_yahoo_trace(p);
    BudgetPacedStrategy planner(trace, config);
    const RunResult planned = dc.run(trace, &planner);
    const OracleResult oracle = oracle_search(dc, trace, 2);
    EXPECT_GT(planned.performance_factor, oracle.best_performance * 0.95)
        << "degree " << degree;
    // And clearly above Greedy (which exhausts mid-burst).
    GreedyStrategy greedy;
    EXPECT_GT(planned.performance_factor,
              dc.run(trace, &greedy).performance_factor)
        << "degree " << degree;
  }
}

TEST(BudgetPaced, BiggerPoolsRaiseTheCap) {
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  double prev = 1.0;
  for (double ah : {0.25, 0.5, 1.0, 4.0}) {
    DataCenterConfig config = small_config();
    config.battery_per_server.capacity = Charge::amp_hours(ah);
    BudgetPacedStrategy planner(trace, config);
    EXPECT_GE(planner.planned_cap(), prev - 1e-9) << "capacity " << ah;
    prev = planner.planned_cap();
  }
}

TEST(BudgetPaced, NoBurstMeansNoCap) {
  TimeSeries flat;
  flat.push_back(Duration::zero(), 0.5);
  flat.push_back(Duration::minutes(10), 0.5);
  BudgetPacedStrategy planner(flat, small_config());
  EXPECT_DOUBLE_EQ(planner.planned_cap(), 1.0);
}

TEST(BudgetPaced, Validation) {
  EXPECT_THROW((void)BudgetPacedStrategy(TimeSeries{}, small_config()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// OnlineAdaptiveStrategy
// ---------------------------------------------------------------------------

UpperBoundTable small_table(DataCenter& dc) {
  const std::vector<Duration> durations = {
      Duration::minutes(1), Duration::minutes(8), Duration::minutes(15),
      Duration::minutes(25)};
  const std::vector<double> degrees = {2.0, 2.6, 3.2, 3.6};
  return build_upper_bound_table(dc, durations, degrees,
                                 workload::YahooTraceParams{}, 4);
}

TEST(OnlineAdaptive, RunsWithoutOracleInputsAndBeatsNothing) {
  DataCenter dc(small_config());
  const UpperBoundTable table = small_table(dc);
  OnlineAdaptiveStrategy online(&table);
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(15);
  const RunResult r = dc.run(workload::generate_yahoo_trace(p), &online);
  EXPECT_GT(r.performance_factor, 1.3);
  EXPECT_FALSE(r.tripped);
}

TEST(OnlineAdaptive, LearnsAcrossRepeatedBursts) {
  // Two identical bursts in one trace: the strategy should handle the
  // second at least as well as a cold-start Greedy run, because the first
  // burst taught it the duration.
  DataCenter dc(small_config());
  const UpperBoundTable table = small_table(dc);

  // Build a 70-minute trace with two 15-minute 3.2x bursts.
  TimeSeries trace;
  {
    workload::YahooTraceParams p;
    p.length = Duration::minutes(70);
    p.burst_degree = 3.2;
    p.burst_duration = Duration::minutes(15);
    p.burst_start = Duration::minutes(5);
    TimeSeries once = workload::generate_yahoo_trace(p);
    trace = workload::inject_burst(once, Duration::minutes(40),
                                   Duration::minutes(15), 3.2);
  }
  OnlineAdaptiveStrategy online(&table);
  const RunResult r = dc.run(trace, &online, {.record = true});
  EXPECT_FALSE(r.tripped);
  EXPECT_GE(online.predictor().bursts_completed(), 2u);
  // Learned duration is close to the real 15 minutes.
  EXPECT_NEAR(online.predictor().predicted_duration().min(), 15.0, 3.0);
  GreedyStrategy greedy;
  const RunResult g = dc.run(trace, &greedy);
  EXPECT_GT(r.performance_factor, g.performance_factor);
}

TEST(OnlineAdaptive, RequiresTable) {
  EXPECT_THROW((void)OnlineAdaptiveStrategy(nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Supply disturbances
// ---------------------------------------------------------------------------

TimeSeries dip(Duration at, Duration width, double level, Duration total) {
  TimeSeries s;
  s.push_back(Duration::zero(), 1.0);
  s.push_back(at, level);
  s.push_back(at + width, 1.0);
  s.push_back(total, 1.0);
  return s;
}

TEST(SupplyDisturbance, SprintAbortsImmediately) {
  DataCenter dc(small_config());
  workload::YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  // The feed dips to 70 % three minutes into the burst.
  const TimeSeries supply =
      dip(Duration::minutes(8), Duration::minutes(2), 0.7, trace.end_time());
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy,
                             {.record = true, .supply_fraction = &supply});
  EXPECT_FALSE(r.tripped);
  const TimeSeries& degree = r.recorder.series("degree");
  // Sprinting before the dip, shed to normal cores during it.
  EXPECT_GT(degree.at(Duration::minutes(7)), 1.5);
  EXPECT_DOUBLE_EQ(degree.at(Duration::minutes(8.5)), 1.0);
  EXPECT_DOUBLE_EQ(degree.at(Duration::minutes(9.9)), 1.0);
}

TEST(SupplyDisturbance, SprintAbortsImmediatelyEvenWithGenerator) {
  // Same mid-burst dip, but with backup generation available. The terminal
  // rule still applies — a compromised feed ends the sprint on the spot and
  // the generator only protects the baseline load; it must never be used to
  // keep sprinting through the disturbance.
  DataCenterConfig config = small_config();
  DataCenter dc(config);
  workload::YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  const TimeSeries supply =
      dip(Duration::minutes(8), Duration::minutes(2), 0.7, trace.end_time());
  power::DieselGenerator generator(
      "gen", {.rated = config.dc_rated(), .start_delay = Duration::seconds(45)});
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy,
                             {.record = true,
                              .supply_fraction = &supply,
                              .generator = &generator});
  EXPECT_FALSE(r.tripped);
  const TimeSeries& degree = r.recorder.series("degree");
  EXPECT_GT(degree.at(Duration::minutes(7)), 1.5);
  EXPECT_DOUBLE_EQ(degree.at(Duration::minutes(8.5)), 1.0);
  // Even after the generator is online (start delay 45 s), the sprint stays
  // terminated for the rest of the burst.
  EXPECT_DOUBLE_EQ(degree.at(Duration::minutes(9.9)), 1.0);
}

TEST(SupplyDisturbance, SharedGeneratorIsResetBetweenRuns) {
  // RunOptions::generator is caller-owned and reused across runs; run()
  // resets it to a stopped, fault-free state each time, so repeating a run
  // with the same generator object gives identical results.
  DataCenterConfig config = small_config();
  DataCenter dc(config);
  TimeSeries trace;
  trace.push_back(Duration::zero(), 0.98);
  trace.push_back(Duration::minutes(20), 0.98);
  TimeSeries supply;
  supply.push_back(Duration::zero(), 1.0);
  supply.push_back(Duration::minutes(5), 0.5);
  supply.push_back(Duration::minutes(20), 0.5);
  power::DieselGenerator generator(
      "gen", {.rated = config.dc_rated(), .start_delay = Duration::seconds(45)});
  GreedyStrategy greedy;
  const RunOptions options{.supply_fraction = &supply, .generator = &generator};
  const RunResult a = dc.run(trace, &greedy, options);
  EXPECT_TRUE(generator.running());  // left running by the first run...
  const RunResult b = dc.run(trace, &greedy, options);
  // ...yet the second run starts from scratch and matches exactly.
  EXPECT_DOUBLE_EQ(a.performance_factor, b.performance_factor);
  EXPECT_DOUBLE_EQ(a.ups_energy.j(), b.ups_energy.j());
  EXPECT_DOUBLE_EQ(a.min_ups_soc, b.min_ups_soc);
}

TEST(SupplyDisturbance, UpsBridgesTheDip) {
  DataCenter dc(small_config());
  // Demand at capacity; a 60 % dip cannot carry it from the grid alone.
  TimeSeries trace;
  trace.push_back(Duration::zero(), 0.98);
  trace.push_back(Duration::minutes(12), 0.98);
  const TimeSeries supply =
      dip(Duration::minutes(5), Duration::minutes(2), 0.6, trace.end_time());
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy,
                             {.record = true, .supply_fraction = &supply});
  // Service is maintained through the dip on battery power...
  const TimeSeries& achieved = r.recorder.series("achieved");
  EXPECT_NEAR(achieved.at(Duration::minutes(6)), 0.98, 1e-6);
  // ...and the UPS visibly discharged.
  const TimeSeries& ups = r.recorder.series("ups_mw");
  EXPECT_GT(ups.at(Duration::minutes(6)), 0.0);
  EXPECT_LT(r.min_ups_soc, 1.0);
}

TEST(SupplyDisturbance, GeneratorTakesOver) {
  DataCenterConfig config = small_config();
  DataCenter dc(config);
  TimeSeries trace;
  trace.push_back(Duration::zero(), 0.98);
  trace.push_back(Duration::minutes(20), 0.98);
  // Long 50 % derating from minute 5 to the end.
  TimeSeries supply;
  supply.push_back(Duration::zero(), 1.0);
  supply.push_back(Duration::minutes(5), 0.5);
  supply.push_back(Duration::minutes(20), 0.5);
  power::DieselGenerator generator(
      "gen", {.rated = config.dc_rated(), .start_delay = Duration::seconds(45)});
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy,
                             {.record = true,
                              .supply_fraction = &supply,
                              .generator = &generator});
  EXPECT_TRUE(generator.running());
  // With the generator online the UPS stops discharging shortly after the
  // start delay.
  const TimeSeries& ups = r.recorder.series("ups_mw");
  EXPECT_GT(ups.at(Duration::seconds(5 * 60 + 20)), 0.0);   // bridging
  EXPECT_DOUBLE_EQ(ups.at(Duration::minutes(7)), 0.0);      // generator on
  EXPECT_NEAR(r.recorder.series("achieved").at(Duration::minutes(15)), 0.98,
              1e-6);
}

TEST(SupplyDisturbance, HealthySupplySeriesIsNoOp) {
  DataCenter dc(small_config());
  const TimeSeries trace = workload::generate_yahoo_trace();
  TimeSeries healthy;
  healthy.push_back(Duration::zero(), 1.0);
  healthy.push_back(trace.end_time(), 1.0);
  GreedyStrategy greedy;
  const RunResult with = dc.run(trace, &greedy,
                                {.supply_fraction = &healthy});
  const RunResult without = dc.run(trace, &greedy);
  EXPECT_DOUBLE_EQ(with.performance_factor, without.performance_factor);
}

// ---------------------------------------------------------------------------
// CB budget allocation (Section V-B parent/child rule)
// ---------------------------------------------------------------------------

std::vector<Power> allocate(Power parent,
                            const std::vector<CbBudgetRequest>& children) {
  std::vector<Power> grants(children.size());
  (void)allocate_cb_budget(parent, children, grants);
  return grants;
}

TEST(CbBudget, EveryoneFitsGetsTheirAsk) {
  const std::vector<CbBudgetRequest> kids = {
      {Power::kilowatts(10), Power::kilowatts(15)},
      {Power::kilowatts(20), Power::kilowatts(15)},
  };
  std::vector<Power> grants(kids.size());
  EXPECT_FALSE(allocate_cb_budget(Power::kilowatts(100), kids, grants));
  EXPECT_DOUBLE_EQ(grants[0].kw(), 10.0);
  EXPECT_DOUBLE_EQ(grants[1].kw(), 15.0);  // capped by its own breaker
}

TEST(CbBudget, ParentBoundSharedMaxMinFairly) {
  const std::vector<CbBudgetRequest> kids = {
      {Power::kilowatts(5), Power::kilowatts(30)},
      {Power::kilowatts(20), Power::kilowatts(30)},
      {Power::kilowatts(30), Power::kilowatts(30)},
  };
  std::vector<Power> grants(kids.size());
  EXPECT_TRUE(allocate_cb_budget(Power::kilowatts(35), kids, grants));
  // Child 0 is below the water level and gets its full ask; the other two
  // split the remaining 30 kW equally.
  EXPECT_DOUBLE_EQ(grants[0].kw(), 5.0);
  EXPECT_DOUBLE_EQ(grants[1].kw(), 15.0);
  EXPECT_DOUBLE_EQ(grants[2].kw(), 15.0);
}

TEST(CbBudget, WaterLevelIsPerPdu) {
  // A child standing for three PDUs shares the level per PDU, so a uniform
  // demand gets the same per-PDU grant however its PDUs are grouped.
  const std::vector<CbBudgetRequest> grouped = {
      {Power::kilowatts(20), Power::kilowatts(30), 1},
      {Power::kilowatts(20), Power::kilowatts(30), 3},
  };
  const std::vector<Power> grants = allocate(Power::kilowatts(40), grouped);
  EXPECT_DOUBLE_EQ(grants[0].kw(), 10.0);
  EXPECT_DOUBLE_EQ(grants[1].kw(), 10.0);
  const std::vector<Power> one =
      allocate(Power::kilowatts(40), {{Power::kilowatts(20), Power::kilowatts(30), 4}});
  EXPECT_DOUBLE_EQ(one[0].kw(), 10.0);
  // A small child below the level is served in full; the big one takes the
  // rest per PDU.
  const std::vector<Power> skewed = allocate(
      Power::kilowatts(40), {{Power::kilowatts(4), Power::kilowatts(30), 1},
                             {Power::kilowatts(20), Power::kilowatts(30), 3}});
  EXPECT_DOUBLE_EQ(skewed[0].kw(), 4.0);
  EXPECT_DOUBLE_EQ(skewed[1].kw(), 12.0);
}

TEST(CbBudget, SumNeverExceedsParent) {
  const std::vector<CbBudgetRequest> kids = {
      {Power::kilowatts(12), Power::kilowatts(14)},
      {Power::kilowatts(9), Power::kilowatts(10), 3},
      {Power::kilowatts(25), Power::kilowatts(18)},
      {Power::kilowatts(2), Power::kilowatts(20), 2},
  };
  for (double parent_kw : {5.0, 20.0, 33.0, 100.0}) {
    const auto grants = allocate(Power::kilowatts(parent_kw), kids);
    Power total = Power::zero();
    for (std::size_t i = 0; i < grants.size(); ++i) {
      total += grants[i] * static_cast<double>(kids[i].count);
      EXPECT_LE(grants[i],
                std::min(kids[i].demand, kids[i].child_allow) + Power::watts(1));
    }
    EXPECT_LE(total, Power::kilowatts(parent_kw) + Power::watts(1));
  }
}

TEST(CbBudget, ZeroParentGrantsNothing) {
  const auto grants =
      allocate(Power::zero(), {{Power::kilowatts(10), Power::kilowatts(10)}});
  EXPECT_DOUBLE_EQ(grants[0].w(), 0.0);
}

TEST(CbBudget, EmptyChildrenOk) {
  EXPECT_TRUE(allocate(Power::kilowatts(1), {}).empty());
}

// ---------------------------------------------------------------------------
// End-to-end battery lifetime neutrality (Sections III-B / V-D)
// ---------------------------------------------------------------------------

TEST(Lifetime, SimulatedBurstyDayIsLifetimeNeutralForLfp) {
  // Serve a day of MS-style traffic (capacity = 4 GB/s) with greedy
  // sprinting, extrapolate the measured discharge pattern to a month, and
  // check it against the cycle-life model — the paper's argument that
  // sprinting needs no extra battery provisioning.
  DataCenter dc(small_config());
  const TimeSeries day =
      workload::generate_ms_day_trace().scaled(1.0 / 4.0);
  GreedyStrategy greedy;
  const RunResult r = dc.run(day, &greedy);

  ASSERT_GT(r.ups_discharge_events, 0u);
  const double events_per_month =
      static_cast<double>(r.ups_discharge_events) * 30.0;
  const double avg_depth =
      r.ups_equivalent_cycles / static_cast<double>(r.ups_discharge_events);
  EXPECT_LT(avg_depth, 0.6);  // bursts drain a fraction, not full cycles

  const power::BatteryLifetimeModel lfp(power::Chemistry::kLfp);
  EXPECT_TRUE(lfp.lifetime_neutral(events_per_month, std::max(avg_depth, 0.01)));
}

}  // namespace
}  // namespace dcs::core
