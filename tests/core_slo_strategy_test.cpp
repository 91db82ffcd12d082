// SLO-driven sprinting: the p99 violation latch with hysteresis, the
// pressure-scaled bound, the energy-reserve arbitration against admission
// control, and the closed loop (serving window p99 -> observe_latency ->
// sprint bound) beating a no-sprint baseline end to end.
#include "core/slo_strategy.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/datacenter.h"
#include "serving/serving_layer.h"
#include "util/time_series.h"
#include "workload/yahoo_trace.h"

namespace dcs::core {
namespace {

SprintContext burst_context(double demand = 2.0) {
  SprintContext ctx;
  ctx.demand = demand;
  ctx.max_degree = 4.0;
  ctx.max_demand_in_burst = demand;
  ctx.remaining_energy_fraction = 1.0;
  return ctx;
}

TEST(SloStrategy, ValidatesParams) {
  EXPECT_THROW((void)SloSprintStrategy({.target_p99_s = 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)SloSprintStrategy({.gain = -1.0}), std::invalid_argument);
  EXPECT_THROW((void)SloSprintStrategy({.reserve_fraction = 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)SloSprintStrategy({.hysteresis = 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)SloSprintStrategy({.hysteresis = 1.5}),
               std::invalid_argument);
  EXPECT_EQ(SloSprintStrategy().name(), "slo");
}

TEST(SloStrategy, OnsetIsTriggeredByP99NotByDemand) {
  SloSprintStrategy slo({.target_p99_s = 0.25});
  // A burst is in progress but the tail still meets the SLO: queueing
  // absorbs it, the strategy holds the no-sprint bound.
  slo.observe_latency(0.100);
  EXPECT_FALSE(slo.violating());
  EXPECT_DOUBLE_EQ(slo.upper_bound(burst_context(3.0)), 1.0);

  // The p99 crosses the target: the latch opens and the bound scales with
  // the violation pressure — and covers at least the demand so the sprint
  // is not starved the moment it starts.
  slo.observe_latency(0.500);  // pressure = 1.0
  EXPECT_TRUE(slo.violating());
  EXPECT_DOUBLE_EQ(slo.last_p99_s(), 0.500);
  const double bound = slo.upper_bound(burst_context(2.0));
  EXPECT_GE(bound, 2.0);  // at least the demand
  EXPECT_LE(bound, 4.0);  // never above the hardware maximum
  // gain 4 x pressure 1 -> 1 + 4 = 5, clamped to max_degree.
  EXPECT_DOUBLE_EQ(bound, 4.0);

  // Higher pressure under a lazier demand still sprints to the pressure.
  slo.observe_latency(0.300);  // pressure = 0.2 -> 1 + 0.8
  EXPECT_DOUBLE_EQ(slo.upper_bound(burst_context(1.2)), 1.8);
}

TEST(SloStrategy, HysteresisPreventsChatter) {
  SloSprintStrategy slo({.target_p99_s = 0.25, .hysteresis = 0.9});
  slo.observe_latency(0.400);
  EXPECT_TRUE(slo.violating());

  // Recovered below target but above hysteresis x target (0.225): the
  // latch holds, the strategy keeps sprinting through the gray zone.
  slo.observe_latency(0.240);
  EXPECT_TRUE(slo.violating());
  EXPECT_GE(slo.upper_bound(burst_context(1.5)), 1.5);

  // Below the release threshold: the latch drops back to bound 1.
  slo.observe_latency(0.200);
  EXPECT_FALSE(slo.violating());
  EXPECT_DOUBLE_EQ(slo.upper_bound(burst_context(1.5)), 1.0);

  // A fresh burst resets nothing it should not: the latch re-opens on the
  // next violation.
  slo.on_burst_start();
  slo.observe_latency(0.300);
  EXPECT_TRUE(slo.violating());
}

TEST(SloStrategy, EnergyReserveCedesToAdmissionControl) {
  SloSprintStrategy slo({.target_p99_s = 0.25, .reserve_fraction = 0.10});
  slo.observe_latency(1.0);  // heavy violation
  EXPECT_TRUE(slo.violating());

  SprintContext ctx = burst_context(2.0);
  ctx.remaining_energy_fraction = 0.05;  // below the reserve floor
  // Out of budget: stop sprinting no matter how bad the tail is — from
  // here the system sheds load (admission control) instead.
  EXPECT_DOUBLE_EQ(slo.upper_bound(ctx), 1.0);

  ctx.remaining_energy_fraction = 0.5;
  EXPECT_GT(slo.upper_bound(ctx), 1.0);

  // Negative p99 input is treated as no signal, not a violation.
  SloSprintStrategy fresh;
  fresh.observe_latency(-1.0);
  EXPECT_FALSE(fresh.violating());
  EXPECT_DOUBLE_EQ(fresh.last_p99_s(), 0.0);
}

TEST(SloStrategy, ClosedLoopBeatsNoSprintOnServingP99) {
  // End-to-end: serving layer ticks after each control period, its window
  // p99 feeds the strategy, the strategy's bound reshapes the service
  // rates. The SLO run must beat the no-sprint run on the serving tail —
  // the mechanism fig12 sweeps.
  workload::YahooTraceParams yp;
  yp.burst_degree = 3.2;
  yp.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(yp);

  DataCenterConfig config;
  config.fleet.pdu_count = 2;

  const auto serving_p99_ms = [&](bool use_slo) {
    serving::ServingParams sp;
    sp.demand = &trace;
    serving::ServingLayer serving(sp);
    SloSprintStrategy slo({.target_p99_s = 0.25});
    ConstantBoundStrategy nosprint(1.0, "nosprint");
    Strategy* strategy = &nosprint;
    if (use_slo) {
      strategy = &slo;
      serving.set_slo_callback([&slo](const serving::ServingStats& stats) {
        slo.observe_latency(stats.p99_s);
      });
    }
    DataCenter dc(config);
    RunOptions opts;
    opts.components = {&serving};
    opts.on_step = [&serving](Duration, Duration, const StepResult& step) {
      serving.set_capacity_degree(step.degree);
    };
    const RunResult run = dc.run(trace, strategy, opts);
    EXPECT_FALSE(run.tripped);
    if (use_slo) {
      EXPECT_GT(run.sprint_time.sec(), 0.0);
    }
    return serving.latency().p99() * 1e3;
  };

  const double slo_p99 = serving_p99_ms(true);
  const double nosprint_p99 = serving_p99_ms(false);
  EXPECT_LT(slo_p99, nosprint_p99);
  // The 3.2x burst floods an unsprinted plant: its tail is deep into the
  // fluid-overload regime, while the SLO sprint keeps serving. The margin
  // is well over the histogram's bucket resolution, not a rounding fluke.
  EXPECT_GT(nosprint_p99, 1.2 * slo_p99);
}

}  // namespace
}  // namespace dcs::core
