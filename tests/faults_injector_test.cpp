#include "faults/injector.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/config.h"
#include "faults/fault.h"
#include "faults/schedule.h"
#include "faults/watchdog.h"
#include "power/generator.h"
#include "power/topology.h"
#include "thermal/cooling_plant.h"
#include "thermal/room_model.h"
#include "thermal/tes_tank.h"

namespace dcs::faults {
namespace {

core::DataCenterConfig small_config() {
  core::DataCenterConfig c;
  c.fleet.pdu_count = 2;
  return c;
}

Fault make(FaultKind kind, double start_s, double end_s, double magnitude,
           SensorChannel channel = SensorChannel::kDemand) {
  return Fault{kind, Duration::seconds(start_s), Duration::seconds(end_s),
               magnitude, channel};
}

// ---------------------------------------------------------------------------
// Fault / severity
// ---------------------------------------------------------------------------

TEST(Fault, ActiveWindowIsHalfOpen) {
  const Fault f = make(FaultKind::kUpsBankOutage, 10, 20, 0.5);
  EXPECT_FALSE(f.active_at(Duration::seconds(9.9)));
  EXPECT_TRUE(f.active_at(Duration::seconds(10)));
  EXPECT_TRUE(f.active_at(Duration::seconds(19.9)));
  EXPECT_FALSE(f.active_at(Duration::seconds(20)));
}

TEST(Fault, SeverityOrdersDeratingAboveItsMagnitude) {
  // A breaker derating shrinks every planning margin: twice the weight.
  EXPECT_DOUBLE_EQ(
      severity_of(make(FaultKind::kBreakerDerating, 0, 1, 0.2)), 0.4);
  EXPECT_DOUBLE_EQ(
      severity_of(make(FaultKind::kUpsBankOutage, 0, 1, 0.2)), 0.2);
  // Stale sensors are always severe enough to end a sprint (>= 0.5).
  EXPECT_GE(severity_of(make(FaultKind::kSensorStale, 0, 1, 1.0)), 0.5);
  EXPECT_GE(severity_of(make(FaultKind::kGeneratorStartFailure, 0, 1, 1.0)),
            0.5);
}

TEST(Fault, SensorKindsAreSensorFaults) {
  EXPECT_TRUE(is_sensor_fault(FaultKind::kSensorStale));
  EXPECT_TRUE(is_sensor_fault(FaultKind::kSensorDropped));
  EXPECT_TRUE(is_sensor_fault(FaultKind::kSensorNoisy));
  EXPECT_FALSE(is_sensor_fault(FaultKind::kChillerFailure));
}

// ---------------------------------------------------------------------------
// FaultSchedule
// ---------------------------------------------------------------------------

TEST(FaultSchedule, RejectsMalformedFaults) {
  FaultSchedule s;
  // Empty window.
  EXPECT_THROW(s.add(make(FaultKind::kUpsBankOutage, 10, 10, 0.5)),
               std::invalid_argument);
  // Inverted window.
  EXPECT_THROW(s.add(make(FaultKind::kUpsBankOutage, 20, 10, 0.5)),
               std::invalid_argument);
  // Out-of-range magnitudes per kind.
  EXPECT_THROW(s.add(make(FaultKind::kUpsBankOutage, 0, 1, 1.5)),
               std::invalid_argument);
  EXPECT_THROW(s.add(make(FaultKind::kBreakerDerating, 0, 1, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(s.add(make(FaultKind::kBreakerNuisanceBias, 0, 1, -0.1)),
               std::invalid_argument);
  EXPECT_TRUE(s.empty());
  EXPECT_NO_THROW(s.add(make(FaultKind::kChillerDegradedCop, 0, 1, 2.0)));
  EXPECT_EQ(s.size(), 1u);
}

TEST(FaultSchedule, RandomIsDeterministicAndSurvivable) {
  const Duration horizon = Duration::minutes(30);
  const FaultSchedule a = FaultSchedule::random(42, horizon, 1.0);
  const FaultSchedule b = FaultSchedule::random(42, horizon, 1.0);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GE(a.size(), 2u);
  EXPECT_LE(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.faults()[i].kind, b.faults()[i].kind);
    EXPECT_DOUBLE_EQ(a.faults()[i].magnitude, b.faults()[i].magnitude);
    EXPECT_DOUBLE_EQ(a.faults()[i].start.sec(), b.faults()[i].start.sec());
    // Windows stay inside the horizon.
    EXPECT_GE(a.faults()[i].start.sec(), 0.0);
    EXPECT_LE(a.faults()[i].end.sec(), horizon.sec());
    // The survivable pool never draws sensor faults (those blind the
    // controller and void the no-trip guarantee) or start failures.
    EXPECT_FALSE(is_sensor_fault(a.faults()[i].kind));
    EXPECT_NE(a.faults()[i].kind, FaultKind::kGeneratorStartFailure);
  }
  // Different seeds draw different schedules.
  const FaultSchedule c = FaultSchedule::random(43, horizon, 1.0);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.faults()[i].kind != c.faults()[i].kind ||
              a.faults()[i].magnitude != c.faults()[i].magnitude;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, RandomDrawSequenceIndependentOfSeverity) {
  const Duration horizon = Duration::minutes(30);
  const FaultSchedule lo = FaultSchedule::random(7, horizon, 0.25);
  const FaultSchedule hi = FaultSchedule::random(7, horizon, 1.0);
  ASSERT_EQ(lo.size(), hi.size());
  for (std::size_t i = 0; i < lo.size(); ++i) {
    EXPECT_EQ(lo.faults()[i].kind, hi.faults()[i].kind);
    EXPECT_DOUBLE_EQ(lo.faults()[i].start.sec(), hi.faults()[i].start.sec());
    EXPECT_DOUBLE_EQ(lo.faults()[i].end.sec(), hi.faults()[i].end.sec());
    // Severity only scales the magnitude.
    EXPECT_LE(lo.faults()[i].magnitude, hi.faults()[i].magnitude + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

struct PlantFixture {
  core::DataCenterConfig config = small_config();
  power::PowerTopology topology{config.topology_params()};
  thermal::TesTank tes{"tes", config.tes_params()};
  thermal::CoolingPlant cooling{config.cooling_params(&tes)};
  power::DieselGenerator generator{
      "gen", {.rated = Power::megawatts(8.0),
              .start_delay = Duration::seconds(30)}};

  FaultInjector::Bindings bindings() {
    return {&topology, &cooling, &tes, &generator};
  }
};

TEST(FaultSchedule, ActivityAndSeverityQueries) {
  PlantFixture p;
  FaultSchedule s;
  s.add(make(FaultKind::kUpsBankOutage, 10, 20, 0.3));
  s.add(make(FaultKind::kChillerFailure, 15, 30, 0.8));
  FaultInjector inj(s, p.bindings());
  const auto at = [&inj](double t) {
    inj.apply(Duration::seconds(t));
    return inj.state();
  };
  EXPECT_EQ(at(5).active_count, 0u);
  EXPECT_EQ(at(12).active_count, 1u);
  EXPECT_DOUBLE_EQ(at(12).severity, 0.3);
  EXPECT_DOUBLE_EQ(at(16).severity, 0.8);  // worst wins
  EXPECT_EQ(at(40).active_count, 0u);
  EXPECT_DOUBLE_EQ(at(40).severity, 0.0);
}

TEST(FaultInjector, PushesFaultsIntoComponentsAndRevertsToNeutral) {
  PlantFixture p;
  FaultSchedule s;
  s.add(make(FaultKind::kUpsBankOutage, 10, 20, 0.4));
  s.add(make(FaultKind::kBreakerDerating, 10, 20, 0.1));
  s.add(make(FaultKind::kChillerFailure, 10, 20, 0.5));
  s.add(make(FaultKind::kTesValveStuck, 10, 20, 1.0));
  FaultInjector inj(s, p.bindings());

  inj.apply(Duration::seconds(5));
  EXPECT_EQ(inj.state().active_count, 0u);
  EXPECT_FALSE(inj.ever_active());
  const Power rated = p.topology.groups().front().pdu.breaker().rated();
  const Power max_dis = p.topology.groups().front().pdu.ups().max_discharge();
  const Power cap = p.cooling.thermal_capacity();

  inj.apply(Duration::seconds(15));
  EXPECT_EQ(inj.state().active_count, 4u);
  EXPECT_TRUE(inj.ever_active());
  EXPECT_DOUBLE_EQ(
      p.topology.groups().front().pdu.breaker().effective_rated().w(),
      rated.w() * 0.9);
  EXPECT_DOUBLE_EQ(p.topology.groups().front().pdu.ups().max_discharge().w(),
                   max_dis.w() * 0.6);
  EXPECT_DOUBLE_EQ(p.cooling.thermal_capacity().w(), cap.w() * 0.5);
  EXPECT_DOUBLE_EQ(p.tes.max_discharge_rate().w(), 0.0);

  inj.apply(Duration::seconds(25));
  EXPECT_EQ(inj.state().active_count, 0u);
  EXPECT_TRUE(inj.ever_active());
  EXPECT_DOUBLE_EQ(
      p.topology.groups().front().pdu.breaker().effective_rated().w(), rated.w());
  EXPECT_DOUBLE_EQ(p.topology.groups().front().pdu.ups().max_discharge().w(),
                   max_dis.w());
  EXPECT_DOUBLE_EQ(p.cooling.thermal_capacity().w(), cap.w());
  EXPECT_GT(p.tes.max_discharge_rate().w(), 0.0);
}

TEST(FaultInjector, GeneratorStartFailureBlocksSync) {
  PlantFixture p;
  FaultSchedule s;
  s.add(make(FaultKind::kGeneratorStartFailure, 0, 100, 1.0));
  FaultInjector inj(s, p.bindings());
  inj.apply(Duration::seconds(1));
  p.generator.request_start();
  for (int t = 0; t < 90; ++t) p.generator.tick(Duration::seconds(1));
  EXPECT_FALSE(p.generator.running());
  // The fault clears, the pending start completes.
  inj.apply(Duration::seconds(101));
  p.generator.tick(Duration::seconds(1));
  EXPECT_TRUE(p.generator.running());
}

TEST(FaultInjector, SensorStaleLatchesAndDroppedReadsZero) {
  PlantFixture p;
  FaultSchedule s;
  s.add(make(FaultKind::kSensorStale, 10, 20, 1.0, SensorChannel::kDemand));
  s.add(make(FaultKind::kSensorDropped, 30, 40, 1.0, SensorChannel::kDemand));
  FaultInjector inj(s, p.bindings());

  EXPECT_DOUBLE_EQ(inj.measure(SensorChannel::kDemand, Duration::seconds(5), 2.0),
                   2.0);
  // Stale: latches the last healthy reading for the whole window.
  EXPECT_DOUBLE_EQ(inj.measure(SensorChannel::kDemand, Duration::seconds(12), 3.0),
                   2.0);
  EXPECT_DOUBLE_EQ(inj.measure(SensorChannel::kDemand, Duration::seconds(18), 3.5),
                   2.0);
  // Healthy again.
  EXPECT_DOUBLE_EQ(inj.measure(SensorChannel::kDemand, Duration::seconds(25), 3.0),
                   3.0);
  // Dropped: reads zero.
  EXPECT_DOUBLE_EQ(inj.measure(SensorChannel::kDemand, Duration::seconds(35), 3.0),
                   0.0);
  // Other channels are unaffected.
  EXPECT_DOUBLE_EQ(inj.measure(SensorChannel::kPower, Duration::seconds(35), 0.7),
                   0.7);
}

TEST(FaultInjector, SensorNoiseIsSeededAndNonNegative) {
  PlantFixture p;
  FaultSchedule s;
  s.add(make(FaultKind::kSensorNoisy, 0, 100, 0.2, SensorChannel::kDemand));
  FaultInjector a(s, p.bindings(), 123);
  FaultInjector b(s, p.bindings(), 123);
  FaultInjector c(s, p.bindings(), 456);
  bool seed_differs = false;
  for (int t = 0; t < 50; ++t) {
    const Duration now = Duration::seconds(t);
    const double va = a.measure(SensorChannel::kDemand, now, 2.0);
    const double vb = b.measure(SensorChannel::kDemand, now, 2.0);
    const double vc = c.measure(SensorChannel::kDemand, now, 2.0);
    EXPECT_DOUBLE_EQ(va, vb);
    EXPECT_GE(va, 0.0);
    seed_differs = seed_differs || va != vc;
  }
  EXPECT_TRUE(seed_differs);
}

TEST(FaultInjector, RequiresTopologyAndCooling) {
  PlantFixture p;
  FaultSchedule s;
  s.add(make(FaultKind::kUpsBankOutage, 0, 1, 0.5));
  EXPECT_THROW(FaultInjector(s, {nullptr, &p.cooling, nullptr, nullptr}),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector(s, {&p.topology, nullptr, nullptr, nullptr}),
               std::invalid_argument);
  // TES and generator are optional.
  EXPECT_NO_THROW(FaultInjector(s, {&p.topology, &p.cooling, nullptr, nullptr}));
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, CleanPlantPasses) {
  PlantFixture p;
  const thermal::RoomModel room(p.config.room_params());
  Watchdog dog({.ups_floor = 0.0});
  dog.check(Duration::seconds(1), p.topology, room, &p.tes);
  EXPECT_TRUE(dog.report().ok());
  EXPECT_EQ(dog.report().checks, 1u);
  EXPECT_EQ(dog.report().violations, 0u);
}

TEST(Watchdog, FlagsTrippedBreakerAndOverheatedRoom) {
  PlantFixture p;
  // Overload the fleet's PDU breakers (one group) hard enough to trip them.
  auto& cb = p.topology.groups().front().pdu.breaker();
  for (int i = 0; i < 600 && !cb.tripped(); ++i) {
    cb.apply_load(cb.rated() * 2.0, Duration::seconds(1));
  }
  ASSERT_TRUE(cb.tripped());

  thermal::RoomModel room(p.config.room_params());
  // Push the room past the threshold.
  for (int i = 0; i < 15; ++i) {
    room.step(Power::megawatts(20.0), Power::megawatts(10.0),
              Duration::minutes(1));
  }
  ASSERT_TRUE(room.over_threshold());

  Watchdog dog({.ups_floor = 0.0});
  dog.check(Duration::seconds(7), p.topology, room, &p.tes);
  EXPECT_FALSE(dog.report().ok());
  // One tripped PDU group + one overheated room = two violations this
  // tick: a group counts once however many PDUs it stands for.
  EXPECT_EQ(dog.report().violations, 2u);
  EXPECT_EQ(dog.report().first_time.sec(), 7.0);
  EXPECT_NE(dog.report().first_message.find("breaker"), std::string::npos);

  // Disabling the breaker and room checks (uncontrolled baseline) passes.
  Watchdog lax({.ups_floor = 0.0, .check_breakers = false, .check_room = false});
  lax.check(Duration::seconds(7), p.topology, room, &p.tes);
  EXPECT_TRUE(lax.report().ok());
}

TEST(Watchdog, FlagsUpsBelowReserveFloor) {
  PlantFixture p;
  const thermal::RoomModel room(p.config.room_params());
  auto& bank = p.topology.groups().front().pdu.ups();
  // Drain the bank fully (the default reserve floor is 0, so discharge all
  // the way down), then demand a 0.5 floor.
  for (int i = 0; i < 10000 && bank.soc() > 0.4; ++i) {
    (void)bank.discharge(bank.max_discharge(), Duration::seconds(1));
  }
  ASSERT_LT(bank.soc(), 0.4);
  Watchdog dog({.ups_floor = 0.5});
  dog.check(Duration::seconds(3), p.topology, room, &p.tes);
  EXPECT_FALSE(dog.report().ok());
  EXPECT_NE(dog.report().first_message.find("SoC"), std::string::npos);
}

}  // namespace
}  // namespace dcs::faults
