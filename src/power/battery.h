// Server-level UPS battery (distributed UPS architecture, after
// Kontorinis et al. [18], which the paper adopts).
//
// The default 0.5 Ah battery on an ~11 V server bus stores 5.5 Wh and
// sustains a 55 W peak-normal server for about 6 minutes, matching the
// paper's Section VI-A configuration. Cycle accounting tracks equivalent
// full cycles and discharge events so experiments can check the paper's
// lifetime-neutrality argument (<= 10 full discharges per month for LFP).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/units.h"

namespace dcs::power {

class Battery {
 public:
  struct Params {
    Charge capacity = Charge::amp_hours(0.5);
    double bus_voltage = 11.0;
    /// Maximum discharge power (inverter / C-rate limit).
    Power max_discharge = Power::watts(150.0);
    /// Maximum recharge power (~0.5C for the default LFP cell, so a full
    /// recharge takes a couple of hours — consecutive bursts within one
    /// trace window see an essentially un-recharged battery).
    Power max_recharge = Power::watts(2.75);
    /// Round-trip losses are charged on recharge.
    double recharge_efficiency = 0.9;
    /// Fraction of capacity below which the battery refuses to discharge
    /// (protects against deep discharge; 0 allows full discharge as the
    /// paper assumes for LFP).
    double reserve_floor = 0.0;
  };

  Battery(std::string name, const Params& params);

  /// Energy the battery can still deliver (above the reserve floor).
  [[nodiscard]] Energy available() const noexcept;
  /// Stored energy (including any reserve floor).
  [[nodiscard]] Energy stored() const noexcept { return stored_; }
  [[nodiscard]] Energy capacity() const noexcept { return capacity_; }
  /// State of charge in [0, 1].
  [[nodiscard]] double soc() const noexcept;

  /// Requests `power` for `dt`; returns the power actually supplied
  /// (limited by the inverter rating and the stored energy). Partial-tick
  /// exhaustion delivers the energy-limited average power for the tick.
  Power discharge(Power power, Duration dt);

  /// Accepts up to `power` for `dt` at the recharge efficiency; returns the
  /// grid power actually drawn.
  Power recharge(Power power, Duration dt);

  /// Equivalent full cycles = total discharged energy / capacity.
  [[nodiscard]] double equivalent_full_cycles() const noexcept;
  /// Number of discharge *events*: transitions from not-discharging to
  /// discharging with at least `deep_fraction` of capacity drawn before the
  /// next recharge-or-idle period.
  [[nodiscard]] std::size_t discharge_events() const noexcept { return events_; }
  [[nodiscard]] Energy total_discharged() const noexcept {
    return total_discharged_;
  }

  /// Discharge power limit after any injected bank outage.
  [[nodiscard]] Power max_discharge() const noexcept {
    return params_.max_discharge * availability_;
  }
  [[nodiscard]] std::string_view name() const noexcept { return name_; }

  /// Fault-injection hook (faults::FaultInjector): `availability` is the
  /// fraction of the bank still online (scales power limits and accessible
  /// energy); `capacity_factor` models capacity fade (stored energy above
  /// the faded capacity is lost and does not come back until recharged).
  /// Both are neutral by default.
  void set_fault(double availability, double capacity_factor) noexcept;
  /// Capacity after any injected fade.
  [[nodiscard]] Energy effective_capacity() const noexcept {
    return capacity_ * capacity_factor_;
  }

 private:
  std::string name_;
  Params params_;
  Energy capacity_;
  Energy stored_;
  Energy total_discharged_;
  double availability_ = 1.0;     ///< injected bank outage (1 = all online)
  double capacity_factor_ = 1.0;  ///< injected capacity fade (1 = nominal)
  std::size_t events_ = 0;
  bool discharging_ = false;
};

}  // namespace dcs::power
