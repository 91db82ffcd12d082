#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "power/pdu.h"
#include "power/topology.h"

namespace dcs::power {
namespace {

Pdu::Params pdu_params() {
  Pdu::Params p;
  p.server_count = 200;
  // Paper: 55 W x 200 x 1.25 = 13.75 kW rated.
  p.breaker.rated = Power::kilowatts(13.75);
  return p;
}

/// Steps every group with the same per-PDU server power and UPS request.
Flows step_all(PowerTopology& topo, Power server, Power ups, Power cooling,
               Duration dt) {
  const std::vector<Power> load(topo.groups().size(), server);
  const std::vector<Power> request(topo.groups().size(), ups);
  return topo.step(load, request, cooling, dt);
}

/// Recharges every group's banks with the same per-PDU power.
Flows recharge_all(PowerTopology& topo, Power server, Power recharge,
                   Power cooling, Duration dt) {
  const std::vector<Power> load(topo.groups().size(), server);
  const std::vector<Power> charge(topo.groups().size(), recharge);
  return topo.recharge(load, charge, cooling, dt);
}

TEST(Pdu, AggregatesBatteryBank) {
  const Pdu pdu("p", pdu_params());
  // 200 x 5.5 Wh = 1.1 kWh bank.
  EXPECT_NEAR(pdu.ups().capacity().kwh(), 1.1, 1e-9);
  EXPECT_NEAR(pdu.ups().max_discharge().kw(), 30.0, 1e-9);  // 200 x 150 W
}

TEST(Pdu, StepWithoutUpsLoadsBreakerFully) {
  Pdu pdu("p", pdu_params());
  const Power grid = pdu.step(Power::kilowatts(11), Power::zero(), Duration::seconds(1));
  EXPECT_DOUBLE_EQ(grid.kw(), 11.0);
  EXPECT_DOUBLE_EQ(pdu.last_ups_power().w(), 0.0);
  EXPECT_FALSE(pdu.breaker().tripped());
}

TEST(Pdu, UpsReducesGridLoad) {
  Pdu pdu("p", pdu_params());
  const Power grid = pdu.step(Power::kilowatts(20), Power::kilowatts(8),
                              Duration::seconds(1));
  EXPECT_NEAR(grid.kw(), 12.0, 1e-9);
  EXPECT_NEAR(pdu.last_ups_power().kw(), 8.0, 1e-9);
}

TEST(Pdu, UpsRequestCappedAtServerPower) {
  Pdu pdu("p", pdu_params());
  const Power grid = pdu.step(Power::kilowatts(5), Power::kilowatts(30),
                              Duration::seconds(1));
  EXPECT_DOUBLE_EQ(grid.w(), 0.0);
  EXPECT_NEAR(pdu.last_ups_power().kw(), 5.0, 1e-9);
}

TEST(Pdu, RechargeAddsGridLoad) {
  Pdu pdu("p", pdu_params());
  // Drain a bit first so the bank accepts charge.
  pdu.step(Power::kilowatts(20), Power::kilowatts(10), Duration::seconds(60));
  const Power grid = pdu.recharge_step(Power::kilowatts(10), Power::kilowatts(0.5),
                                       Duration::seconds(1));
  EXPECT_GT(grid.kw(), 10.0);
  EXPECT_DOUBLE_EQ(pdu.last_ups_power().w(), 0.0);
}

TEST(Pdu, RequiresServers) {
  Pdu::Params p = pdu_params();
  p.server_count = 0;
  EXPECT_THROW((void)Pdu("p", p), std::invalid_argument);
}

PowerTopology::Params topo_params(std::size_t pdus = 4) {
  PowerTopology::Params p;
  p.pdu_count = pdus;
  p.pdu = pdu_params();
  p.dc_breaker.rated = Power::kilowatts(13.75 * static_cast<double>(pdus) * 1.2);
  return p;
}

/// `pdus` PDUs as `pdus` groups of one.
PowerTopology::Params singleton_params(std::size_t pdus) {
  PowerTopology::Params p = topo_params(pdus);
  p.group_sizes.assign(pdus, 1);
  return p;
}

std::size_t server_count(const PowerTopology& topo) {
  std::size_t n = 0;
  for (const PowerTopology::Group& g : topo.groups()) {
    n += g.pdu.server_count() * g.count;
  }
  return n;
}

TEST(PowerTopology, CountsServers) {
  const PowerTopology topo(topo_params(4));
  EXPECT_EQ(topo.pdu_count(), 4u);
  EXPECT_EQ(server_count(topo), 800u);
  ASSERT_EQ(topo.groups().size(), 1u);
  EXPECT_EQ(topo.groups().front().count, 4u);
  PowerTopology::Params zoned = topo_params(4);
  zoned.group_sizes = {1, 3};
  const PowerTopology zones(zoned);
  EXPECT_EQ(zones.pdu_count(), 4u);
  EXPECT_EQ(server_count(zones), 800u);
  EXPECT_EQ(zones.groups()[1].count, 3u);
}

TEST(PowerTopology, UniformStepAggregatesFlows) {
  PowerTopology topo(topo_params(4));
  const Flows flows = step_all(topo, Power::kilowatts(10), Power::zero(),
                                        Power::kilowatts(5), Duration::seconds(1));
  EXPECT_NEAR(flows.pdu_grid_total.kw(), 40.0, 1e-9);
  EXPECT_NEAR(flows.dc_load.kw(), 45.0, 1e-9);
  EXPECT_DOUBLE_EQ(flows.ups_total.w(), 0.0);
  EXPECT_FALSE(flows.dc_tripped);
  EXPECT_FALSE(flows.any_pdu_tripped);
}

TEST(PowerTopology, PerPduStepValidatesSizes) {
  // step() takes one value per PDU group.
  PowerTopology topo(singleton_params(2));
  const std::vector<Power> one = {Power::kilowatts(1)};
  const std::vector<Power> two = {Power::zero(), Power::zero()};
  EXPECT_THROW((void)topo.step(one, two, Power::zero(), Duration::seconds(1)),
               std::invalid_argument);
  EXPECT_THROW((void)topo.recharge(two, one, Power::zero(), Duration::seconds(1)),
               std::invalid_argument);
  // Group sizes must tile the PDU count, with no empty group.
  PowerTopology::Params short_groups = topo_params(4);
  short_groups.group_sizes = {1, 2};
  EXPECT_THROW((void)PowerTopology{short_groups}, std::invalid_argument);
  PowerTopology::Params empty_group = topo_params(4);
  empty_group.group_sizes = {4, 0};
  EXPECT_THROW((void)PowerTopology{empty_group}, std::invalid_argument);
}

TEST(PowerTopology, SkewedLoadTripsOnlyThatPdu) {
  PowerTopology topo(singleton_params(2));
  // PDU 0 at 60 % overload trips after ~60 s; PDU 1 stays at rated.
  const std::vector<Power> load = {Power::kilowatts(22), Power::kilowatts(10)};
  const std::vector<Power> no_ups = {Power::zero(), Power::zero()};
  for (int i = 0; i < 70; ++i) {
    topo.step(load, no_ups, Power::zero(), Duration::seconds(1));
  }
  EXPECT_TRUE(topo.groups()[0].pdu.breaker().tripped());
  EXPECT_FALSE(topo.groups()[1].pdu.breaker().tripped());
  EXPECT_DOUBLE_EQ(topo.max_pdu_breaker_heat(), 1.0);
}

TEST(PowerTopology, UpsDischargeRelievesDcBreaker) {
  PowerTopology topo(topo_params(2));
  const Flows without = step_all(topo, Power::kilowatts(20), Power::zero(),
                                          Power::zero(), Duration::seconds(1));
  PowerTopology topo2(topo_params(2));
  const Flows with = step_all(topo2, Power::kilowatts(20), Power::kilowatts(8),
                                        Power::zero(), Duration::seconds(1));
  EXPECT_GT(without.dc_load, with.dc_load);
  EXPECT_NEAR((without.dc_load - with.dc_load).kw(), 16.0, 1e-9);
}

TEST(PowerTopology, UpsEnergyAccounting) {
  PowerTopology topo(topo_params(2));
  const Energy cap = topo.ups_capacity();
  EXPECT_NEAR(cap.kwh(), 2.2, 1e-9);
  step_all(topo, Power::kilowatts(20), Power::kilowatts(10), Power::zero(),
                    Duration::seconds(60));
  EXPECT_NEAR((cap - topo.ups_available()).kwh(), 2.0 * 10.0 * 60.0 / 3600.0, 1e-6);
}

TEST(PowerTopology, RechargeUniformDrawsThroughBreakers) {
  PowerTopology topo(topo_params(2));
  step_all(topo, Power::kilowatts(20), Power::kilowatts(10), Power::zero(),
                    Duration::seconds(60));
  const Flows flows = recharge_all(topo, Power::kilowatts(5), Power::kilowatts(0.5),
                                            Power::kilowatts(2), Duration::seconds(1));
  EXPECT_GT(flows.pdu_grid_total.kw(), 10.0);
  EXPECT_GT(flows.dc_load.kw(), 12.0);
}

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

void expect_same_pdu_state(const Pdu& a, const Pdu& b) {
  EXPECT_EQ(bits(a.breaker().thermal_state()), bits(b.breaker().thermal_state()));
  EXPECT_EQ(a.breaker().tripped(), b.breaker().tripped());
  EXPECT_EQ(bits(a.breaker().effective_rated().w()),
            bits(b.breaker().effective_rated().w()));
  EXPECT_EQ(bits(a.ups().stored().j()), bits(b.ups().stored().j()));
  EXPECT_EQ(bits(a.ups().total_discharged().j()),
            bits(b.ups().total_discharged().j()));
  EXPECT_EQ(a.ups().discharge_events(), b.ups().discharge_events());
  EXPECT_EQ(bits(a.ups().max_discharge().w()), bits(b.ups().max_discharge().w()));
  EXPECT_EQ(bits(a.ups().effective_capacity().j()),
            bits(b.ups().effective_capacity().j()));
  EXPECT_EQ(bits(a.last_grid_load().w()), bits(b.last_grid_load().w()));
  EXPECT_EQ(bits(a.last_ups_power().w()), bits(b.last_ups_power().w()));
}

void expect_close(double a, double b) {
  EXPECT_LE(std::abs(a - b), 1e-12 * std::max(std::abs(a), std::abs(b)))
      << a << " vs " << b;
}

TEST(PowerTopology, GroupOfNMatchesNGroupsOfOne) {
  // The group contract: one group of n PDUs evolves every per-PDU state
  // bit-identically to n groups of one driven through the same loads,
  // and its totals (state x n) match the n-term sums to rounding.
  constexpr std::size_t kPdus = 5;
  PowerTopology grouped(topo_params(kPdus));
  PowerTopology singles(singleton_params(kPdus));
  ASSERT_EQ(grouped.groups().size(), 1u);
  ASSERT_EQ(singles.groups().size(), kPdus);
  const Power loads[] = {Power::kilowatts(10), Power::kilowatts(18),
                         Power::kilowatts(21), Power::kilowatts(9)};
  for (int round = 0; round < 40; ++round) {
    const Power server = loads[round % 4];
    const Power ups = round % 3 == 0 ? Power::kilowatts(4) : Power::zero();
    if (round == 20) {
      grouped.set_fault_all(0.9, 0.05, 0.5, 0.8);
      singles.set_fault_all(0.9, 0.05, 0.5, 0.8);
    }
    const bool recharge = round % 5 == 4;
    const Flows a =
        recharge ? recharge_all(grouped, server, Power::kilowatts(0.5),
                                            Power::kilowatts(3), Duration::seconds(1))
                 : step_all(grouped, server, ups, Power::kilowatts(3),
                                        Duration::seconds(1));
    const Flows b =
        recharge ? recharge_all(singles, server, Power::kilowatts(0.5),
                                            Power::kilowatts(3), Duration::seconds(1))
                 : step_all(singles, server, ups, Power::kilowatts(3),
                                        Duration::seconds(1));
    expect_close(a.pdu_grid_total.w(), b.pdu_grid_total.w());
    expect_close(a.ups_total.w(), b.ups_total.w());
    expect_close(a.dc_load.w(), b.dc_load.w());
    EXPECT_EQ(a.any_pdu_tripped, b.any_pdu_tripped);
    EXPECT_EQ(a.dc_tripped, b.dc_tripped);
  }
  for (const PowerTopology::Group& single : singles.groups()) {
    expect_same_pdu_state(grouped.groups().front().pdu, single.pdu);
  }
  expect_close(grouped.ups_available().j(), singles.ups_available().j());
  expect_close(grouped.ups_capacity().j(), singles.ups_capacity().j());
  EXPECT_EQ(bits(grouped.max_pdu_breaker_heat()),
            bits(singles.max_pdu_breaker_heat()));
  EXPECT_EQ(bits(grouped.dc_breaker().thermal_state()),
            bits(singles.dc_breaker().thermal_state()));
}

TEST(PowerTopology, SetFaultAllAppliesToEverySlot) {
  PowerTopology topo(singleton_params(3));
  step_all(topo, Power::kilowatts(20), Power::kilowatts(5), Power::zero(),
                    Duration::seconds(30));
  topo.set_fault_all(0.8, 0.1, 0.5, 0.9);
  for (const PowerTopology::Group& g : topo.groups()) {
    EXPECT_DOUBLE_EQ(g.pdu.breaker().effective_rated().kw(), 13.75 * 0.8);
  }
  // Clearing restores the nameplate rating everywhere.
  topo.set_fault_all(1.0, 0.0, 1.0, 1.0);
  for (const PowerTopology::Group& g : topo.groups()) {
    EXPECT_DOUBLE_EQ(g.pdu.breaker().effective_rated().kw(), 13.75);
  }
}

TEST(PowerTopology, CopyPreservesStateAndIndependence) {
  PowerTopology topo(topo_params(2));
  step_all(topo, Power::kilowatts(20), Power::kilowatts(8), Power::zero(),
                    Duration::seconds(60));
  PowerTopology copy = topo;
  EXPECT_EQ(bits(copy.ups_available().j()), bits(topo.ups_available().j()));
  expect_same_pdu_state(copy.groups().front().pdu, topo.groups().front().pdu);
  // Further steps on the copy must not alias the original's state.
  step_all(copy, Power::kilowatts(22), Power::zero(), Power::zero(),
                    Duration::seconds(60));
  EXPECT_NE(bits(copy.groups().front().pdu.breaker().thermal_state()),
            bits(topo.groups().front().pdu.breaker().thermal_state()));
  PowerTopology moved = std::move(copy);
  EXPECT_GT(moved.groups().front().pdu.breaker().thermal_state(), 0.0);
  step_all(moved, Power::kilowatts(10), Power::zero(), Power::zero(),
                     Duration::seconds(1));
}

TEST(PowerTopology, RequiresAtLeastOnePdu) {
  PowerTopology::Params p = topo_params();
  p.pdu_count = 0;
  EXPECT_THROW((void)PowerTopology{p}, std::invalid_argument);
}

}  // namespace
}  // namespace dcs::power
