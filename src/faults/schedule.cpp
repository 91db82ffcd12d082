#include "faults/schedule.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace dcs::faults {
namespace {

/// Valid magnitude range per kind (derating/bias must leave the component
/// with some capability, so their upper bound is exclusive of 1).
struct MagnitudeRange {
  double lo;
  double hi;
  bool hi_inclusive;
};

MagnitudeRange magnitude_range(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kBreakerDerating:
    case FaultKind::kBreakerNuisanceBias:
      return {0.0, 1.0, false};
    case FaultKind::kChillerDegradedCop:
      return {0.0, 5.0, true};
    case FaultKind::kGeneratorStartFailure:
    case FaultKind::kGeneratorDelayedStart:
      return {0.0, 3600.0, true};  // seconds for the delayed start
    case FaultKind::kSensorNoisy:
      return {0.0, 2.0, true};
    default:
      return {0.0, 1.0, true};
  }
}

}  // namespace

void FaultSchedule::add(const Fault& fault) {
  DCS_REQUIRE(fault.start >= Duration::zero(),
              "fault window must start at or after t=0");
  DCS_REQUIRE(fault.end > fault.start, "fault window must have positive length");
  const MagnitudeRange range = magnitude_range(fault.kind);
  const bool in_range =
      fault.magnitude >= range.lo &&
      (range.hi_inclusive ? fault.magnitude <= range.hi
                          : fault.magnitude < range.hi);
  DCS_REQUIRE(in_range, "fault magnitude out of range for its kind");
  faults_.push_back(fault);
}

FaultSchedule FaultSchedule::random(std::uint64_t seed, Duration horizon,
                                    double severity) {
  DCS_REQUIRE(horizon > Duration::zero(), "horizon must be positive");
  DCS_REQUIRE(severity >= 0.0 && severity <= 1.0, "severity in [0, 1]");
  // Survivable envelope: derating stays mild (a derated breaker still
  // carries the peak-normal load with UPS help) and windows stay short
  // relative to the breaker thermal time scale.
  struct Pick {
    FaultKind kind;
    double lo;
    double hi;
  };
  static constexpr Pick kPool[] = {
      {FaultKind::kUpsBankOutage, 0.20, 0.60},
      {FaultKind::kUpsCapacityFade, 0.10, 0.45},
      {FaultKind::kBreakerDerating, 0.04, 0.15},
      {FaultKind::kBreakerNuisanceBias, 0.10, 0.30},
      {FaultKind::kChillerFailure, 0.15, 0.50},
      {FaultKind::kChillerDegradedCop, 0.10, 0.40},
      {FaultKind::kTesValveStuck, 0.30, 1.00},
      {FaultKind::kGeneratorDelayedStart, 10.0, 60.0},
  };
  Rng rng(seed);
  FaultSchedule out;
  const std::size_t count = 2 + rng.uniform_index(3);
  for (std::size_t i = 0; i < count; ++i) {
    const Pick& pick = kPool[rng.uniform_index(std::size(kPool))];
    const double base = rng.uniform(pick.lo, pick.hi);
    const double start_frac = rng.uniform(0.15, 0.60);
    const double duration_s = rng.uniform(60.0, 300.0);
    Fault f;
    f.kind = pick.kind;
    f.magnitude = base * severity;
    f.start = horizon * start_frac;
    f.end = std::min(f.start + Duration::seconds(duration_s), horizon);
    if (f.end > f.start) out.add(f);
  }
  return out;
}

}  // namespace dcs::faults
