// Circuit breaker with a thermal-accumulator trip model.
//
// A bimetal trip element integrates heating: under a time-varying load the
// breaker trips when the accumulated "trip fraction" sum(dt / t_trip(r(t)))
// reaches 1. For a constant load this reduces exactly to the published trip
// curve; for the controller it yields the quantity the paper monitors — the
// *remaining time before the CB trips if the current overload continues*.
// When the load drops back to or below rating the element cools with an
// exponential time constant.
#pragma once

#include <string>
#include <string_view>

#include "power/trip_curve.h"
#include "util/units.h"

namespace dcs::power {

class CircuitBreaker {
 public:
  struct Params {
    Power rated;
    TripCurve curve{};
    /// Exponential cooling time constant of the thermal element when the
    /// load is at or below the no-trip ratio.
    Duration cooling_tau = Duration::minutes(10);
  };

  CircuitBreaker(std::string name, const Params& params);

  /// Advances the thermal state under `load` for `dt`. Once the trip
  /// fraction reaches 1 the breaker opens and stays open until reset().
  void apply_load(Power load, Duration dt);

  [[nodiscard]] bool tripped() const noexcept { return tripped_; }
  /// Trip fraction in [0, 1]; 1 means tripped.
  [[nodiscard]] double thermal_state() const noexcept { return heat_; }

  [[nodiscard]] double load_ratio(Power load) const;

  /// Time until trip if `load` were held constant from the current thermal
  /// state. Infinite when the load cannot trip the breaker.
  [[nodiscard]] Duration time_to_trip_at(Power load) const;

  /// Cheap screen for `!time_to_trip_at(load).is_infinite()`: false exactly
  /// when the load sits at or below the no-trip boundary of a closed
  /// breaker. Inline so per-tick callers (trace edge detection) can skip
  /// the full curve lookup during the long spells the governor pins the
  /// load at this boundary.
  [[nodiscard]] bool can_trip_at(Power load) const noexcept {
    return tripped_ ||
           load.w() > effective_rated().w() *
                          params_.curve.params().no_trip_ratio * (1.0 + 1e-9);
  }

  /// Inline `time_to_trip_at(load) < horizon` for loads can_trip_at()
  /// admits and horizons above the magnetic trip delay (where the thermal
  /// floor cannot flip the comparison): the thermal-region margin
  /// C * headroom / (r-1)^2 compared against the horizon with
  /// multiplications only — no division, no curve call. Exhausted
  /// headroom and tripped states are unconditionally within the horizon,
  /// matching the full computation.
  [[nodiscard]] bool trips_within(Power load, Duration horizon) const noexcept {
    if (tripped_) return true;
    const double headroom = 1.0 - trip_bias_ - heat_;
    if (headroom <= 0.0) return true;
    const double rated_w = effective_rated().w();
    const double over_w = load.w() - rated_w;
    // margin = C * headroom / o^2 with o = over_w / rated_w, so
    // margin < horizon  <=>  over_w^2 * horizon > C * headroom * rated_w^2.
    return over_w * over_w * horizon.sec() >
           params_.curve.params().thermal_coeff_s * headroom * rated_w *
               rated_w;
  }

  /// Largest load sustainable for at least `hold` from the current thermal
  /// state (the controller's overload upper bound). Never below rated power:
  /// rated load is always sustainable.
  [[nodiscard]] Power max_load_for(Duration hold) const;

  /// Closes the breaker again and clears the thermal state (maintenance
  /// action; in the uncontrolled-sprinting experiment a trip is terminal).
  void reset() noexcept;

  /// Fault-injection hook (faults::FaultInjector): `rating_factor` derates
  /// the effective rated power (aging, loose lugs); `trip_bias` lowers the
  /// trip threshold to 1 - bias (a marginal element that nuisance-trips
  /// early). Both are neutral by default and every query above reflects
  /// them, so the governor re-plans against the degraded element.
  void set_fault(double rating_factor, double trip_bias) noexcept;
  /// Rated power after any injected derating.
  [[nodiscard]] Power effective_rated() const noexcept {
    return params_.rated * rating_factor_;
  }

  [[nodiscard]] Power rated() const noexcept { return params_.rated; }
  [[nodiscard]] std::string_view name() const noexcept { return name_; }

 private:
  std::string name_;
  Params params_;
  double heat_ = 0.0;           ///< trip fraction in [0, 1]
  double rating_factor_ = 1.0;  ///< injected derating (1 = nominal)
  double trip_bias_ = 0.0;      ///< injected trip-threshold bias (0 = nominal)
  bool tripped_ = false;
  // exp(-(dt / cooling_tau)) keyed on the dt it was computed for: dt is the
  // fixed control period within a run, so the cooling decay costs one exp
  // per run instead of one per tick. Bit-identical to recomputing.
  double decay_cache_dt_s_ = -1.0;
  double decay_cache_ = 1.0;
};

}  // namespace dcs::power
