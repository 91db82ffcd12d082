#include "faults/fault.h"

#include <algorithm>

namespace dcs::faults {

std::string_view to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kUpsBankOutage: return "ups-bank-outage";
    case FaultKind::kUpsCapacityFade: return "ups-capacity-fade";
    case FaultKind::kBreakerDerating: return "breaker-derating";
    case FaultKind::kBreakerNuisanceBias: return "breaker-nuisance-bias";
    case FaultKind::kChillerFailure: return "chiller-failure";
    case FaultKind::kChillerDegradedCop: return "chiller-degraded-cop";
    case FaultKind::kTesValveStuck: return "tes-valve-stuck";
    case FaultKind::kGeneratorStartFailure: return "generator-start-failure";
    case FaultKind::kGeneratorDelayedStart: return "generator-delayed-start";
    case FaultKind::kSensorStale: return "sensor-stale";
    case FaultKind::kSensorDropped: return "sensor-dropped";
    case FaultKind::kSensorNoisy: return "sensor-noisy";
  }
  return "?";
}

bool is_sensor_fault(FaultKind kind) noexcept {
  return kind == FaultKind::kSensorStale || kind == FaultKind::kSensorDropped ||
         kind == FaultKind::kSensorNoisy;
}

double severity_of(const Fault& fault) noexcept {
  const double m = fault.magnitude;
  switch (fault.kind) {
    case FaultKind::kUpsBankOutage: return std::clamp(m, 0.0, 1.0);
    case FaultKind::kUpsCapacityFade: return std::clamp(0.8 * m, 0.0, 1.0);
    case FaultKind::kBreakerDerating: return std::clamp(2.0 * m, 0.0, 1.0);
    case FaultKind::kBreakerNuisanceBias: return std::clamp(m, 0.0, 1.0);
    case FaultKind::kChillerFailure: return std::clamp(m, 0.0, 1.0);
    case FaultKind::kChillerDegradedCop: return std::clamp(0.5 * m, 0.0, 1.0);
    case FaultKind::kTesValveStuck: return std::clamp(0.6 * m, 0.0, 1.0);
    case FaultKind::kGeneratorStartFailure: return 0.9;
    // Magnitude is seconds of extra cranking; a 60 s slip is a modest 0.3
    // and anything beyond ~3 minutes is as bad as not starting at all.
    case FaultKind::kGeneratorDelayedStart:
      return std::clamp(m / 200.0, 0.0, 1.0);
    // Stale/dropped sensors are severe enough to end a sprint (the
    // controller can no longer trust its planning inputs); noise scales
    // with its amplitude.
    case FaultKind::kSensorStale: return 0.6;
    case FaultKind::kSensorDropped: return 0.6;
    case FaultKind::kSensorNoisy: return std::clamp(0.3 + m, 0.0, 1.0);
  }
  return 0.0;
}

}  // namespace dcs::faults
