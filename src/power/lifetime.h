// Battery wear model for the paper's lifetime-neutrality argument
// (Sections III-B, IV-B, V-D, after Kontorinis et al. [18]):
//  * an LFP battery "can be fully discharged 10 times per month without its
//    lifetime being affected" against its 8-year required service life;
//  * lead-acid batteries have a 4-year required service life;
//  * the Fig. 1 workload's ~200 bursts/month at ~26 % depth-of-discharge
//    have "no impact on UPS lifetime".
//
// Model: a cycle-life curve (cycles-to-failure vs depth of discharge,
// straight on log-log axes like manufacturer datasheets) plus linear damage
// accumulation (Miner's rule). A usage pattern is lifetime-neutral when its
// wear life meets the chemistry's required service life.
#pragma once

#include "util/interpolate.h"
#include "util/units.h"

namespace dcs::power {

enum class Chemistry { kLfp, kLeadAcid };

class BatteryLifetimeModel {
 public:
  explicit BatteryLifetimeModel(Chemistry chemistry);

  /// Cycles to failure at a given depth of discharge (0, 1].
  [[nodiscard]] double cycles_to_failure(double depth_of_discharge) const;

  /// Miner's-rule damage of one discharge event.
  [[nodiscard]] double damage_per_event(double depth_of_discharge) const;

  /// Years until accumulated damage reaches 1 under a steady pattern.
  [[nodiscard]] double wear_years(double events_per_month,
                                  double depth_of_discharge) const;

  /// True when the pattern's wear life covers the required service life
  /// (8 years LFP, 4 years lead-acid, per the paper).
  [[nodiscard]] bool lifetime_neutral(double events_per_month,
                                      double depth_of_discharge) const;

  [[nodiscard]] Duration required_service_life() const;

 private:
  Chemistry chemistry_;
  PiecewiseCurve cycle_curve_;
};

}  // namespace dcs::power
