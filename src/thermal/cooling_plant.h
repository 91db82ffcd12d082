// Chiller-based CRAC cooling plant (paper Section III-C).
//
// Electrical model: at steady state the plant draws (PUE - 1) x P_it
// (PUE = 1.53 default, servers + cooling only, after Pelley et al. [30]).
// Of that, the chiller accounts for `chiller_fraction` (2/3 per Iyengar &
// Schmidt [16]); the rest runs pumps, valves and CRAC fans and cannot be
// displaced by the TES.
//
// Thermal model: the chiller's heat-absorption capacity is sized for the
// peak-normal IT load. During a sprint the paper deliberately does NOT
// raise chiller power (there is no spare power for it), so without the TES
// the excess heat accumulates in the room. In phase 3 the TES serves two
// roles (Section V-C, Fig. 4a): it absorbs the heat the chiller cannot
// ("enhance cooling"), and it can additionally displace chiller output to
// cut chiller power and relieve the DC-level breaker ("reduce the chiller
// power to decrease the overload of DC-level CBs") — callers request that
// relief explicitly, up to 2/3 of the cooling power when the chiller is
// fully displaced.
#pragma once

#include "thermal/tes_tank.h"
#include "util/units.h"

namespace dcs::thermal {

/// Result of one cooling-plant step.
struct CoolingStep {
  Power electrical;    ///< grid power drawn by the plant this step
  Power heat_absorbed; ///< heat removed from the room this step
  Power tes_heat;      ///< portion of heat_absorbed carried by the TES
  Power relief;        ///< chiller electrical power displaced by the TES
  bool tes_active = false;
};

class CoolingPlant {
 public:
  struct Params {
    /// Power usage effectiveness counting servers + cooling only.
    double pue = 1.53;
    /// Fraction of cooling power consumed by the chiller (displaceable by
    /// the TES); the remainder is pumps/valves/CRAC fans.
    double chiller_fraction = 2.0 / 3.0;
    /// IT load the chiller's thermal capacity is provisioned for.
    Power nominal_it_load;
    /// Optional TES tank; nullptr means the plant has no TES.
    TesTank* tes = nullptr;
  };

  explicit CoolingPlant(const Params& params);

  /// Advances one step. `it_power` is the current total server power (heat
  /// generation rate). When `tes_enabled`, the tank absorbs the heat beyond
  /// the chiller's capacity and additionally displaces up to `relief_elec`
  /// of chiller electrical power (clamped to what the chiller is drawing
  /// and to the tank's remaining charge).
  CoolingStep step(Power it_power, bool tes_enabled, Power relief_elec,
                   Duration dt);

  /// Recharges the TES with surplus chiller output at up to `rate` (thermal);
  /// the extra electrical power is charged at the chiller's efficiency.
  CoolingStep recharge_tes_step(Power it_power, Power rate, Duration dt);

  /// Steady-state electrical draw for a given IT load (no TES involvement).
  [[nodiscard]] Power electrical_for(Power it_power) const noexcept;

  /// What step() would draw electrically, without mutating state. Assumes
  /// the tank (if enabled) still has charge.
  [[nodiscard]] Power electrical_projection(Power it_power, bool tes_enabled,
                                            Power relief_elec) const noexcept;

  /// Electrical power drawn per watt of heat moved by the chiller:
  /// (PUE - 1) x chiller_fraction.
  [[nodiscard]] double chiller_elec_per_heat() const noexcept;

  /// Cooling electrical power corresponding to the nominal IT load.
  [[nodiscard]] Power nominal_electrical() const noexcept;

  /// Maximum heat the chiller can absorb per unit time.
  [[nodiscard]] Power thermal_capacity() const noexcept;

  /// Chiller electrical draw at a given heat output.
  [[nodiscard]] Power chiller_electrical(Power chiller_heat) const noexcept;

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] bool has_tes() const noexcept { return params_.tes != nullptr; }

  /// Fault-injection hook (faults::FaultInjector): `capacity_factor` scales
  /// the chiller's thermal capacity (partial or total chiller failure);
  /// `cop_penalty` raises the electrical power per watt of heat moved by
  /// (1 + penalty) (a degraded coefficient of performance). Both are
  /// neutral by default; every projection above reflects them, so the
  /// controller re-solves feasibility against the degraded plant.
  void set_fault(double capacity_factor, double cop_penalty) noexcept {
    capacity_factor_ = capacity_factor;
    cop_penalty_ = cop_penalty;
  }

 private:
  Params params_;
  double capacity_factor_ = 1.0;  // injected chiller derating (1 = nominal)
  double cop_penalty_ = 0.0;      // injected COP penalty (0 = nominal)
};

}  // namespace dcs::thermal
