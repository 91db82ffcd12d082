// Admission control: when active cores cannot cover the demand, the excess
// requests are denied (the paper's "last resort", after Bhattacharya et
// al. [3]). This class only does the accounting — served vs dropped demand
// integrated over time — which both the performance metric and the revenue
// model consume.
#pragma once

#include "util/units.h"

namespace dcs::workload {

class AdmissionController {
 public:
  /// Records one control step: `demand` arrived, `capacity` was available.
  /// Returns the served demand min(demand, capacity).
  double admit(double demand, double capacity, Duration dt);

  /// Integrated served demand (normalized demand x seconds).
  [[nodiscard]] double served_integral() const noexcept { return served_; }
  /// Integrated dropped demand.
  [[nodiscard]] double dropped_integral() const noexcept { return dropped_; }
  /// Integrated offered demand.
  [[nodiscard]] double offered_integral() const noexcept { return served_ + dropped_; }
  /// Fraction of offered demand that was dropped (0 when nothing offered).
  [[nodiscard]] double drop_fraction() const noexcept;
  /// Total time during which any demand was dropped.
  [[nodiscard]] Duration degraded_time() const noexcept { return degraded_; }

 private:
  double served_ = 0.0;
  double dropped_ = 0.0;
  Duration degraded_ = Duration::zero();
};

}  // namespace dcs::workload
