#include "power/battery.h"

#include <algorithm>

#include "util/check.h"

namespace dcs::power {

Battery::Battery(std::string name, const Params& params)
    : name_(std::move(name)),
      params_(params),
      capacity_(params.capacity.at_volts(params.bus_voltage)),
      stored_(capacity_) {
  DCS_REQUIRE(params_.capacity > Charge::zero(), "capacity must be positive");
  DCS_REQUIRE(params_.bus_voltage > 0.0, "bus voltage must be positive");
  DCS_REQUIRE(params_.max_discharge > Power::zero(), "max discharge must be positive");
  DCS_REQUIRE(params_.max_recharge >= Power::zero(), "max recharge must be non-negative");
  DCS_REQUIRE(params_.recharge_efficiency > 0.0 && params_.recharge_efficiency <= 1.0,
              "recharge efficiency in (0, 1]");
  DCS_REQUIRE(params_.reserve_floor >= 0.0 && params_.reserve_floor < 1.0,
              "reserve floor in [0, 1)");
}

Energy Battery::available() const noexcept {
  const Energy floor = effective_capacity() * params_.reserve_floor;
  const Energy above = stored_ > floor ? stored_ - floor : Energy::zero();
  return above * availability_;
}

double Battery::soc() const noexcept { return stored_ / capacity_; }

Power Battery::discharge(Power power, Duration dt) {
  DCS_REQUIRE(power >= Power::zero(), "discharge power must be non-negative");
  DCS_REQUIRE(dt > Duration::zero(), "dt must be positive");
  const Power requested = std::min(power, max_discharge());
  const Energy want = requested * dt;
  const Energy give = std::min(want, available());
  if (give <= Energy::zero()) {
    discharging_ = false;
    return Power::zero();
  }
  if (!discharging_) {
    ++events_;
    discharging_ = true;
  }
  stored_ -= give;
  total_discharged_ += give;
  return give / dt;
}

Power Battery::recharge(Power power, Duration dt) {
  DCS_REQUIRE(power >= Power::zero(), "recharge power must be non-negative");
  DCS_REQUIRE(dt > Duration::zero(), "dt must be positive");
  discharging_ = false;
  const Power offered = std::min(power, params_.max_recharge * availability_);
  const Energy room = effective_capacity() - stored_;
  const Energy accept = std::min(offered * dt * params_.recharge_efficiency, room);
  if (accept <= Energy::zero()) return Power::zero();
  stored_ += accept;
  // Grid power drawn includes conversion losses.
  return accept / params_.recharge_efficiency / dt;
}

double Battery::equivalent_full_cycles() const noexcept {
  return total_discharged_ / capacity_;
}

void Battery::set_fault(double availability, double capacity_factor) noexcept {
  availability_ = availability;
  capacity_factor_ = capacity_factor;
  // Faded capacity loses the charge above it immediately; the charge does
  // not reappear when the fault clears (it must be recharged).
  stored_ = std::min(stored_, effective_capacity());
}

}  // namespace dcs::power
