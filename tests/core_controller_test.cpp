#include "core/controller.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/config.h"
#include "core/strategy.h"

namespace dcs::core {
namespace {

DataCenterConfig small_config() {
  DataCenterConfig c;
  c.fleet.pdu_count = 2;  // results are invariant to the PDU count
  return c;
}

/// Owns every substrate plus a controller, mirroring DataCenter's wiring,
/// but exposed for direct stepping in tests.
struct Rig {
  explicit Rig(const DataCenterConfig& config, Strategy* strategy, Mode mode)
      : fleet(config.fleet),
        topology(config.topology_params()),
        tes(config.has_tes ? std::make_unique<thermal::TesTank>(
                                 "tes", config.tes_params())
                           : nullptr),
        cooling(config.cooling_params(tes.get())),
        room(config.room_params()),
        controller(config,
                   {&fleet, &topology, &cooling, tes.get(), &room},
                   strategy, mode) {}

  StepResult run_for(double demand, int seconds, Duration start = Duration::zero()) {
    StepResult last;
    for (int i = 0; i < seconds; ++i) {
      last = controller.step(start + Duration::seconds(i), demand,
                             Duration::seconds(1));
    }
    return last;
  }

  compute::Fleet fleet;
  power::PowerTopology topology;
  std::unique_ptr<thermal::TesTank> tes;
  thermal::CoolingPlant cooling;
  thermal::RoomModel room;
  SprintingController controller;
};

TEST(Controller, NormalOperationBelowCapacity) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  const StepResult r = rig.run_for(0.95, 10);
  EXPECT_EQ(r.phase, SprintPhase::kNormal);
  EXPECT_DOUBLE_EQ(r.achieved, 0.95);
  EXPECT_DOUBLE_EQ(r.degree, 1.0);
  EXPECT_DOUBLE_EQ(r.ups_power.w(), 0.0);
}

TEST(Controller, SprintActivatesMoreCores) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  const StepResult r = rig.run_for(2.0, 5);
  EXPECT_GT(r.degree, 1.0);
  EXPECT_GT(r.active_cores, 12u);
  EXPECT_NEAR(r.achieved, 2.0, 1e-9);
  EXPECT_NE(r.phase, SprintPhase::kNormal);
}

TEST(Controller, Phase1UsesCbToleranceOnly) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  // Mild sprint the fresh breakers can carry alone.
  const StepResult r = rig.run_for(1.3, 3);
  EXPECT_EQ(r.phase, SprintPhase::kCbOverload);
  EXPECT_DOUBLE_EQ(r.ups_power.w(), 0.0);
}

TEST(Controller, Phase2UpsKicksInWhenCbBoundShrinks) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  // A deep sprint heats the breakers until the governor hands the excess to
  // the UPS banks.
  StepResult r{};
  bool saw_ups = false;
  for (int i = 0; i < 180 && !saw_ups; ++i) {
    r = rig.controller.step(Duration::seconds(i), 3.0, Duration::seconds(1));
    saw_ups = r.ups_power > Power::watts(1.0);
  }
  EXPECT_TRUE(saw_ups);
  EXPECT_EQ(r.phase, SprintPhase::kUpsAssist);
}

TEST(Controller, Phase3TesActivatesOnSchedule) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  const Duration activation = config.tes_activation_time();
  Duration first_tes = Duration::infinity();
  SprintPhase phase_at_activation = SprintPhase::kNormal;
  for (int i = 0; i < 400; ++i) {
    const StepResult r =
        rig.controller.step(Duration::seconds(i), 3.0, Duration::seconds(1));
    if (r.tes_heat > Power::zero() && first_tes.is_infinite()) {
      first_tes = Duration::seconds(i);
      phase_at_activation = r.phase;
    }
  }
  ASSERT_FALSE(first_tes.is_infinite());
  EXPECT_NEAR(first_tes.sec(), activation.sec(), 2.0);
  EXPECT_EQ(phase_at_activation, SprintPhase::kTesCooling);
}

TEST(Controller, ControlledSprintNeverTrips) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  for (int i = 0; i < 1800; ++i) {
    const StepResult r = rig.controller.step(Duration::seconds(i), 3.2,
                                             Duration::seconds(1));
    ASSERT_FALSE(r.tripped);
  }
  EXPECT_FALSE(rig.topology.dc_breaker().tripped());
  EXPECT_FALSE(rig.topology.groups().front().pdu.breaker().tripped());
  EXPECT_LT(rig.topology.dc_breaker().thermal_state(), 1.0);
}

TEST(Controller, RoomStaysBelowThresholdUnderControl) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  for (int i = 0; i < 1800; ++i) {
    rig.controller.step(Duration::seconds(i), 3.2, Duration::seconds(1));
    ASSERT_FALSE(rig.room.over_threshold());
  }
}

TEST(Controller, SprintEndsWhenEnergyExhausted) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  // Long flat-out sprint: eventually the ESDs drain and the controller
  // drops back to the normal core count even though demand persists.
  StepResult r{};
  for (int i = 0; i < 1800; ++i) {
    r = rig.controller.step(Duration::seconds(i), 3.5, Duration::seconds(1));
  }
  EXPECT_DOUBLE_EQ(r.degree, 1.0);
  EXPECT_DOUBLE_EQ(r.achieved, 1.0);
}

TEST(Controller, SprintRestartsOnNextBurst) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  // Exhaust the sprint.
  for (int i = 0; i < 1800; ++i) {
    rig.controller.step(Duration::seconds(i), 3.5, Duration::seconds(1));
  }
  // Recover during a low-demand window (ESDs recharge a little).
  for (int i = 1800; i < 2400; ++i) {
    rig.controller.step(Duration::seconds(i), 0.5, Duration::seconds(1));
  }
  // A fresh burst sprints again (the terminated flag resets).
  const StepResult r = rig.controller.step(Duration::seconds(2400), 2.0,
                                           Duration::seconds(1));
  EXPECT_GT(r.degree, 1.0);
}

TEST(Controller, RechargeRefillsUpsDuringLull) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  // Drain some UPS energy with a sprint.
  for (int i = 0; i < 300; ++i) {
    rig.controller.step(Duration::seconds(i), 3.0, Duration::seconds(1));
  }
  const Energy drained = rig.topology.ups_available();
  // Idle demand below the recharge threshold.
  for (int i = 300; i < 900; ++i) {
    rig.controller.step(Duration::seconds(i), 0.5, Duration::seconds(1));
  }
  EXPECT_GT(rig.topology.ups_available(), drained);
}

TEST(Controller, RechargeNeverOverloadsBreakers) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  for (int i = 0; i < 300; ++i) {
    rig.controller.step(Duration::seconds(i), 3.0, Duration::seconds(1));
  }
  const double dc_heat = rig.topology.dc_breaker().thermal_state();
  for (int i = 300; i < 1500; ++i) {
    const StepResult r = rig.controller.step(Duration::seconds(i), 0.4,
                                             Duration::seconds(1));
    ASSERT_LE(r.dc_load, config.dc_rated() + Power::watts(1.0));
  }
  // Breakers cool during recharge (load at/below rating).
  EXPECT_LT(rig.topology.dc_breaker().thermal_state(), dc_heat);
}

TEST(Controller, UncontrolledSprintTripsAndShutsDown) {
  const DataCenterConfig config = small_config();
  Rig rig(config, nullptr, Mode::kUncontrolled);
  bool tripped = false;
  int trip_second = -1;
  for (int i = 0; i < 600 && !tripped; ++i) {
    const StepResult r = rig.controller.step(Duration::seconds(i), 3.0,
                                             Duration::seconds(1));
    tripped = r.tripped;
    trip_second = i;
  }
  ASSERT_TRUE(tripped);
  EXPECT_GT(trip_second, 10);
  // Afterwards the data center is dark.
  const StepResult after = rig.controller.step(Duration::seconds(601), 0.5,
                                               Duration::seconds(1));
  EXPECT_EQ(after.phase, SprintPhase::kShutdown);
  EXPECT_DOUBLE_EQ(after.achieved, 0.0);
  EXPECT_TRUE(rig.controller.shutdown());
}

TEST(Controller, UncontrolledWithinRatingsNeverTrips) {
  const DataCenterConfig config = small_config();
  Rig rig(config, nullptr, Mode::kUncontrolled);
  for (int i = 0; i < 1800; ++i) {
    const StepResult r = rig.controller.step(Duration::seconds(i), 0.9,
                                             Duration::seconds(1));
    ASSERT_FALSE(r.tripped);
  }
}

TEST(Controller, NoSprintModeStaysAtNormalCores) {
  const DataCenterConfig config = small_config();
  Rig rig(config, nullptr, Mode::kNoSprint);
  const StepResult r = rig.run_for(3.0, 10);
  EXPECT_EQ(r.active_cores, 12u);
  EXPECT_DOUBLE_EQ(r.achieved, 1.0);
}

TEST(Controller, PowerCappedUsesRatingHeadroomOnly) {
  const DataCenterConfig config = small_config();
  Rig rig(config, nullptr, Mode::kPowerCapped);
  const StepResult r = rig.run_for(3.0, 10);
  EXPECT_GT(r.active_cores, 12u);
  EXPECT_GT(r.achieved, 1.0);
  // No stored energy involved, and every rating respected.
  EXPECT_DOUBLE_EQ(r.ups_power.w(), 0.0);
  EXPECT_LE(r.dc_load, config.dc_rated() + Power::watts(1.0));
}

TEST(Controller, PowerCappedBeatenByControlledSprint) {
  const DataCenterConfig config = small_config();
  Rig capped(config, nullptr, Mode::kPowerCapped);
  GreedyStrategy greedy;
  Rig sprint(config, &greedy, Mode::kControlled);
  const StepResult rc = capped.run_for(3.0, 60);
  const StepResult rs = sprint.run_for(3.0, 60);
  EXPECT_GT(rs.achieved, rc.achieved);
}

TEST(Controller, NoTesConfigStillSprints) {
  DataCenterConfig config = small_config();
  config.has_tes = false;
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  const StepResult r = rig.run_for(2.5, 60);
  EXPECT_GT(r.degree, 1.0);
  // Without a TES, phase 3 can never be entered.
  for (int i = 60; i < 600; ++i) {
    const StepResult s = rig.controller.step(Duration::seconds(i), 2.5,
                                             Duration::seconds(1));
    ASSERT_NE(s.phase, SprintPhase::kTesCooling);
    ASSERT_DOUBLE_EQ(s.tes_heat.w(), 0.0);
  }
}

TEST(Controller, EnergyAccountingConsistent) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  const Energy ups_before = rig.topology.ups_available();
  for (int i = 0; i < 300; ++i) {
    rig.controller.step(Duration::seconds(i), 3.0, Duration::seconds(1));
  }
  // Controller-reported UPS energy equals the banks' depletion.
  EXPECT_NEAR(rig.controller.ups_energy().j(),
              (ups_before - rig.topology.ups_available()).j(), 1.0);
}

TEST(Controller, RemainingEnergyFractionDeclinesDuringSprint) {
  const DataCenterConfig config = small_config();
  GreedyStrategy greedy;
  Rig rig(config, &greedy, Mode::kControlled);
  const double start = rig.controller.remaining_energy_fraction();
  EXPECT_NEAR(start, 1.0, 0.01);
  for (int i = 0; i < 400; ++i) {
    rig.controller.step(Duration::seconds(i), 3.0, Duration::seconds(1));
  }
  EXPECT_LT(rig.controller.remaining_energy_fraction(), start - 0.05);
}

TEST(Controller, RequiresDependencies) {
  const DataCenterConfig config = small_config();
  compute::Fleet fleet(config.fleet);
  EXPECT_THROW((void)SprintingController(config, {}, nullptr, Mode::kNoSprint),
               std::invalid_argument);
  GreedyStrategy greedy;
  power::PowerTopology topo(config.topology_params());
  thermal::CoolingPlant cooling(config.cooling_params(nullptr));
  thermal::RoomModel room(config.room_params());
  // Controlled mode without a strategy is rejected.
  EXPECT_THROW((void)SprintingController(config, {&fleet, &topo, &cooling, nullptr, &room},
                                   nullptr, Mode::kControlled),
               std::invalid_argument);
}

}  // namespace
}  // namespace dcs::core
