// Lumped-capacitance room thermal model calibrated to the Schneider
// Electric Data Center Science Center CFD study [22] the paper relies on:
// after a chiller failure the room temperature rises with the gap between
// heat generation (server power) and heat absorption; if the full
// peak-normal heat gap persists, the critical threshold is reached in about
// 10 minutes, and resuming cooling at minute 5 keeps the room below the
// threshold for good.
//
// Calibration: with default threshold_rise = 10 C above setpoint, the
// capacitance is chosen as C = P_peak_normal * 600 s / 10 C, so a gap equal
// to P_peak_normal raises the room 1 C per minute — reproducing both CFD
// properties above.
#pragma once

#include "util/units.h"

namespace dcs::thermal {

class RoomModel {
 public:
  struct Params {
    /// Cold-aisle setpoint.
    Temperature setpoint = Temperature::celsius(25.0);
    /// Rise above setpoint at which IT inlets become critical (ASHRAE
    /// allowable envelope edge).
    Temperature threshold_rise = Temperature::celsius(10.0);
    /// Peak-normal server power used for calibration.
    Power calibration_power;
    /// Time for the calibration gap to reach the threshold (CFD: ~10 min).
    Duration calibration_time = Duration::minutes(10);
    /// Time constant for recovery toward the setpoint when absorption
    /// exceeds generation.
    Duration recovery_tau = Duration::minutes(5);
  };

  explicit RoomModel(const Params& params);

  /// Advances the room state: `generated` is server heat, `absorbed` is the
  /// plant's heat removal this step.
  void step(Power generated, Power absorbed, Duration dt);

  [[nodiscard]] Temperature temperature() const noexcept;
  [[nodiscard]] Temperature rise() const noexcept { return rise_; }
  [[nodiscard]] bool over_threshold() const noexcept;
  /// Highest temperature seen so far.
  [[nodiscard]] Temperature peak_temperature() const noexcept { return peak_; }

  /// Time until the threshold is hit from `rise` if the given constant
  /// heat gap persists; infinite for non-positive gaps. The controller
  /// passes its *measured* rise here, which a faulted sensor may have
  /// corrupted.
  [[nodiscard]] Duration time_to_threshold_from(Temperature rise,
                                                Power gap) const;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Effective thermal capacitance in joules per degree C.
  [[nodiscard]] double capacitance_j_per_c() const noexcept { return capacitance_; }

 private:
  Params params_;
  double capacitance_;  // J / C
  Temperature rise_ = Temperature::celsius(0.0);
  Temperature peak_;
  /// Memoized std::exp(-(dt / recovery_tau)) keyed on dt (fixed on the hot
  /// path), so quiescent overcooled ticks avoid the libm call.
  double decay_cache_dt_s_ = -1.0;
  double decay_cache_ = 1.0;
};

}  // namespace dcs::thermal
