#include "power/topology.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace dcs::power {

PowerTopology::PowerTopology(const Params& params)
    : pdu_count_(params.pdu_count), dc_breaker_("dc/cb", params.dc_breaker) {
  DCS_REQUIRE(params.pdu_count > 0, "need at least one PDU");
  const std::vector<std::size_t> sizes =
      params.group_sizes.empty() ? std::vector<std::size_t>{params.pdu_count}
                                 : params.group_sizes;
  groups_.reserve(sizes.size());
  std::size_t first = 0;
  for (const std::size_t count : sizes) {
    DCS_REQUIRE(count > 0, "every PDU group needs at least one PDU");
    std::string name = "pdu" + std::to_string(first);
    if (count > 1) name += "-" + std::to_string(first + count - 1);
    groups_.push_back(Group{Pdu(std::move(name), params.pdu), count});
    first += count;
  }
  DCS_REQUIRE(first == params.pdu_count,
              "PDU group sizes must sum to the PDU count");
}

Flows PowerTopology::step(std::span<const Power> server_power,
                          std::span<const Power> ups_request,
                          Power cooling_power, Duration dt) {
  DCS_REQUIRE(server_power.size() == groups_.size(),
              "one server power per PDU group");
  DCS_REQUIRE(ups_request.size() == groups_.size(),
              "one ups request per PDU group");
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    groups_[i].pdu.step(server_power[i], ups_request[i], dt);
  }
  return finish_step(cooling_power, dt);
}

Flows PowerTopology::recharge(std::span<const Power> server_power,
                              std::span<const Power> recharge,
                              Power cooling_power, Duration dt) {
  DCS_REQUIRE(server_power.size() == groups_.size(),
              "one server power per PDU group");
  DCS_REQUIRE(recharge.size() == groups_.size(),
              "one recharge power per PDU group");
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    groups_[i].pdu.recharge_step(server_power[i], recharge[i], dt);
  }
  return finish_step(cooling_power, dt);
}

Flows PowerTopology::finish_step(Power cooling_power, Duration dt) {
  DCS_REQUIRE(cooling_power >= Power::zero(), "cooling power must be non-negative");
  Flows flows{};
  for (const Group& g : groups_) {
    const auto n = static_cast<double>(g.count);
    flows.pdu_grid_total += g.pdu.last_grid_load() * n;
    flows.ups_total += g.pdu.last_ups_power() * n;
    flows.any_pdu_tripped = flows.any_pdu_tripped || g.pdu.breaker().tripped();
  }
  flows.cooling = cooling_power;
  flows.dc_load = flows.pdu_grid_total + cooling_power;
  dc_breaker_.apply_load(flows.dc_load, dt);
  flows.dc_tripped = dc_breaker_.tripped();
  return flows;
}

Energy PowerTopology::ups_available() const {
  Energy total = Energy::zero();
  for (const Group& g : groups_) {
    total += g.pdu.ups().available() * static_cast<double>(g.count);
  }
  return total;
}

Energy PowerTopology::ups_capacity() const {
  Energy total = Energy::zero();
  for (const Group& g : groups_) {
    total += g.pdu.ups().capacity() * static_cast<double>(g.count);
  }
  return total;
}

double PowerTopology::max_pdu_breaker_heat() const {
  double max_heat = 0.0;
  for (const Group& g : groups_) {
    max_heat = std::max(max_heat, g.pdu.breaker().thermal_state());
  }
  return max_heat;
}

void PowerTopology::set_fault_all(double breaker_rating_factor,
                                  double breaker_trip_bias,
                                  double ups_availability,
                                  double ups_capacity_factor) {
  for (Group& g : groups_) {
    g.pdu.breaker().set_fault(breaker_rating_factor, breaker_trip_bias);
    g.pdu.ups().set_fault(ups_availability, ups_capacity_factor);
  }
}

}  // namespace dcs::power
