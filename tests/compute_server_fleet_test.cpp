#include <gtest/gtest.h>

#include <stdexcept>

#include "compute/fleet.h"
#include "compute/server.h"

namespace dcs::compute {
namespace {

TEST(Server, PaperPowerNumbers) {
  const Server server;
  // 20 W non-CPU + 5 W chip + 12 x 2.5 W = 55 W peak normal.
  EXPECT_DOUBLE_EQ(server.peak_normal_power().w(), 55.0);
  // All 48 cores: 20 + 125 = 145 W.
  EXPECT_DOUBLE_EQ(server.peak_sprint_power().w(), 145.0);
  // Idle with 12 cores on (paper model: unutilized cores draw nothing).
  EXPECT_DOUBLE_EQ(server.power(12, 0.0).w(), 25.0);
}

TEST(Server, PowerComposition) {
  const Server server;
  EXPECT_DOUBLE_EQ(server.power(24, 0.5).w(), 20.0 + 5.0 + 2.5 * 12.0);
}

TEST(Fleet, PaperScale) {
  const Fleet fleet;
  // 909 PDUs x 200 servers = 181,800 servers ~ 10 MW peak normal.
  EXPECT_EQ(fleet.params().pdu_count * fleet.params().servers_per_pdu,
            181800u);
  EXPECT_NEAR(fleet.operate(1.0, 1.0).fleet_total.mw(), 10.0, 0.01);
  // Every core on and fully utilized: 181,800 x 145 W.
  EXPECT_NEAR(fleet.operate_with_cores(99.0, 48).fleet_total.mw(), 26.36,
              0.01);
}

TEST(Fleet, OperateServesDemandWithinCap) {
  const Fleet fleet;
  const auto op = fleet.operate(0.5, 4.0);
  EXPECT_EQ(op.active_cores, 12u);  // never below normal
  EXPECT_DOUBLE_EQ(op.achieved, 0.5);
  EXPECT_DOUBLE_EQ(op.utilization, 0.5);
}

TEST(Fleet, OperateActivatesJustEnoughCores) {
  const Fleet fleet;
  const auto op = fleet.operate(2.0, 4.0);
  // Just enough cores: capacity at op.cores covers 2.0, one fewer does not.
  EXPECT_GE(fleet.throughput().throughput(op.active_cores), 2.0);
  EXPECT_LT(fleet.throughput().throughput(op.active_cores - 1), 2.0);
  EXPECT_NEAR(op.utilization, 2.0 / fleet.throughput().throughput(op.active_cores),
              1e-12);
}

TEST(Fleet, OperateRespectsDegreeCap) {
  const Fleet fleet;
  const auto op = fleet.operate(3.5, 2.0);
  EXPECT_EQ(op.active_cores, 24u);
  EXPECT_DOUBLE_EQ(op.degree, 2.0);
  EXPECT_LT(op.achieved, 3.5);  // capped
  EXPECT_DOUBLE_EQ(op.utilization, 1.0);
}

TEST(Fleet, AchievedNeverExceedsDemandOrCapacity) {
  const Fleet fleet;
  for (double demand = 0.0; demand <= 4.5; demand += 0.25) {
    for (double cap = 1.0; cap <= 4.0; cap += 0.5) {
      const auto op = fleet.operate(demand, cap);
      EXPECT_LE(op.achieved, demand + 1e-12);
      EXPECT_LE(op.achieved,
                fleet.throughput().throughput(fleet.cap_cores(cap)) + 1e-12);
      EXPECT_GE(op.utilization, 0.0);
      EXPECT_LE(op.utilization, 1.0);
    }
  }
}

TEST(Fleet, PowerAggregation) {
  const Fleet fleet;
  const auto op = fleet.operate(1.0, 1.0);
  EXPECT_DOUBLE_EQ(op.per_server.w(), 55.0);
  EXPECT_DOUBLE_EQ(op.per_pdu.kw(), 11.0);
  EXPECT_NEAR(op.fleet_total.mw(), 10.0, 0.01);
}

TEST(Fleet, PowerMonotoneInDemand) {
  const Fleet fleet;
  Power prev = Power::zero();
  for (double demand = 0.1; demand <= 4.0; demand += 0.1) {
    const auto op = fleet.operate(demand, 4.0);
    EXPECT_GE(op.per_server + Power::watts(1e-9), prev);
    prev = op.per_server;
  }
}

TEST(Fleet, CapacityClampsAtHardware) {
  const Fleet fleet;
  EXPECT_DOUBLE_EQ(fleet.operate(99.0, 1.0).achieved, 1.0);
  EXPECT_EQ(fleet.cap_cores(99.0), fleet.cap_cores(4.0));
  EXPECT_DOUBLE_EQ(fleet.operate(99.0, 99.0).achieved,
                   fleet.operate(99.0, 4.0).achieved);
}

TEST(Fleet, OperateWithCoresValidation) {
  const Fleet fleet;
  EXPECT_THROW((void)fleet.operate_with_cores(1.0, 0), std::invalid_argument);
  EXPECT_THROW((void)fleet.operate_with_cores(1.0, 49), std::invalid_argument);
  EXPECT_THROW((void)fleet.operate(-0.1, 4.0), std::invalid_argument);
  EXPECT_THROW((void)fleet.operate(1.0, 0.5), std::invalid_argument);
}

TEST(Fleet, MismatchedNormalCoresRejected) {
  Fleet::Params p;
  p.throughput.normal_cores = 10;  // chip says 12
  EXPECT_THROW((void)Fleet{p}, std::invalid_argument);
}

}  // namespace
}  // namespace dcs::compute
