// A power distribution unit feeding a group of servers (200 by default,
// after [18]), protected by its own breaker, with the group's distributed
// per-server UPS batteries aggregated into one bank.
//
// Aggregation is exact for the paper's control scheme: coordinating
// distributed batteries "to set a desired number of servers to be powered by
// their batteries" shifts a controllable fraction of the group's power from
// the PDU to the batteries, which is precisely a single bank discharging
// that power.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "power/battery.h"
#include "power/circuit_breaker.h"
#include "util/units.h"

namespace dcs::power {

class Pdu {
 public:
  struct Params {
    std::size_t server_count = 200;
    CircuitBreaker::Params breaker;
    /// Per-server battery; the PDU aggregates `server_count` of them.
    Battery::Params battery_per_server;
  };

  Pdu(std::string name, const Params& params);

  /// One control step: the server group demands `server_power`; the
  /// coordinator asks the UPS bank to carry `ups_request` of it. Returns the
  /// power drawn from the PDU (grid side), after the bank supplied what it
  /// could. Also advances the breaker thermal state with that load.
  Power step(Power server_power, Power ups_request, Duration dt);

  /// Recharges the bank with up to `power` from the grid; the grid draw is
  /// added to the breaker load for this step instead of step().
  Power recharge_step(Power server_power, Power recharge_power, Duration dt);

  [[nodiscard]] CircuitBreaker& breaker() noexcept { return breaker_; }
  [[nodiscard]] const CircuitBreaker& breaker() const noexcept { return breaker_; }
  [[nodiscard]] Battery& ups() noexcept { return ups_; }
  [[nodiscard]] const Battery& ups() const noexcept { return ups_; }

  [[nodiscard]] std::size_t server_count() const noexcept { return params_.server_count; }
  /// Grid power drawn in the most recent step.
  [[nodiscard]] Power last_grid_load() const noexcept { return last_grid_load_; }
  /// UPS power supplied in the most recent step.
  [[nodiscard]] Power last_ups_power() const noexcept { return last_ups_power_; }

  [[nodiscard]] std::string_view name() const noexcept { return name_; }

 private:
  static Battery::Params aggregate(const Battery::Params& per_server,
                                   std::size_t count);

  std::string name_;
  Params params_;
  CircuitBreaker breaker_;
  Battery ups_;
  Power last_grid_load_ = Power::zero();
  Power last_ups_power_ = Power::zero();
};

}  // namespace dcs::power
