#include "workload/admission.h"

#include <algorithm>

#include "util/check.h"

namespace dcs::workload {

double AdmissionController::admit(double demand, double capacity, Duration dt) {
  DCS_REQUIRE(demand >= 0.0, "demand must be non-negative");
  DCS_REQUIRE(capacity >= 0.0, "capacity must be non-negative");
  DCS_REQUIRE(dt > Duration::zero(), "dt must be positive");
  const double served = std::min(demand, capacity);
  const double dropped = demand - served;
  served_ += served * dt.sec();
  dropped_ += dropped * dt.sec();
  if (dropped > 1e-12) degraded_ += dt;
  return served;
}

double AdmissionController::drop_fraction() const noexcept {
  const double offered = offered_integral();
  return offered > 0.0 ? dropped_ / offered : 0.0;
}

}  // namespace dcs::workload
