// Typed, timed infrastructure faults for the sprinting plant.
//
// A Fault derates or breaks one substrate over a time window: UPS banks
// (outage, capacity fade), PDU breakers (rating derated, nuisance-trip
// bias), the chiller (capacity loss, degraded COP), the TES discharge path
// (valve stuck), the backup generator (start failure, delayed start), and
// the controller's sensors (stale, dropped, or noisy readings). The
// FaultInjector pushes the active set into the component models every tick;
// the controller's degradation ladder reacts to the summarized severity.
#pragma once

#include <string_view>

#include "util/units.h"

namespace dcs::faults {

enum class FaultKind {
  // --- power/battery (per-PDU UPS banks) ---
  kUpsBankOutage,    ///< magnitude = fraction of the bank offline [0, 1]
  kUpsCapacityFade,  ///< magnitude = fraction of capacity lost [0, 1]
  // --- power/circuit_breaker, power/pdu (every PDU breaker) ---
  kBreakerDerating,     ///< magnitude = fraction of rated power lost [0, 1)
  kBreakerNuisanceBias, ///< magnitude = trip-fraction bias [0, 1): the
                        ///< element trips at accumulated heat >= 1 - m
  // --- thermal/cooling_plant ---
  kChillerFailure,     ///< magnitude = fraction of thermal capacity lost
                       ///< [0, 1]; 1 is a total chiller outage
  kChillerDegradedCop, ///< magnitude = fractional increase of the chiller's
                       ///< electrical power per watt of heat moved (>= 0)
  // --- thermal/tes_tank ---
  kTesValveStuck, ///< magnitude = fraction of the discharge rate lost
                  ///< [0, 1]; 1 is a stuck-closed valve
  // --- power/generator ---
  kGeneratorStartFailure, ///< the start sequence never completes
  kGeneratorDelayedStart, ///< magnitude = extra start delay in seconds
  // --- controller sensors (see SensorChannel) ---
  kSensorStale,   ///< the reading freezes at its pre-fault value
  kSensorDropped, ///< the reading is lost (reads as zero)
  kSensorNoisy,   ///< magnitude = relative Gaussian noise stddev
};

/// Which controller input a sensor fault corrupts.
enum class SensorChannel {
  kDemand,      ///< normalized demand seen by the controller
  kPower,       ///< remaining-energy-budget fraction fed to strategies
  kTemperature, ///< room temperature rise above setpoint (deg C)
};

struct Fault {
  FaultKind kind = FaultKind::kUpsBankOutage;
  /// Active over [start, end).
  Duration start = Duration::zero();
  Duration end = Duration::zero();
  /// Kind-specific magnitude; see the FaultKind comments.
  double magnitude = 0.0;
  /// Only meaningful for the kSensor* kinds.
  SensorChannel channel = SensorChannel::kDemand;

  [[nodiscard]] bool active_at(Duration t) const noexcept {
    return t >= start && t < end;
  }
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;
[[nodiscard]] bool is_sensor_fault(FaultKind kind) noexcept;

/// Normalized severity in [0, 1] used by the controller's degradation
/// ladder: 0 is harmless, values >= 0.5 end an ongoing sprint outright.
/// Derating faults weigh heavier than their magnitude because they shrink
/// the safety margin of every planning decision.
[[nodiscard]] double severity_of(const Fault& fault) noexcept;

}  // namespace dcs::faults
