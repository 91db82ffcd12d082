// Chip-level phase-change-material heat sink, after Raghavan et al.'s
// Computational Sprinting work [31][32] — the paper's prerequisite: "the
// chip-level sprinting is already safely enabled … If the chip-level
// sprinting can be no longer sustained, we also finish Data Center
// Sprinting" (Section IV).
//
// Model: the package removes `sustainable` watts continuously; chip power
// above that melts the PCM (absorbing the excess as latent heat), power
// below it re-solidifies the PCM at the spare removal rate. When the PCM is
// fully melted the chip can no longer exceed its sustainable power and the
// data-center controller must end the sprint.
//
// The default capacity is sized generously (a server-grade PCM package
// sustaining a full-degree sprint for ~30 minutes) so that, as the paper
// assumes, the chip level does not bind before the data-center level;
// shrink it to study chip-thermally-limited fleets.
#pragma once

#include "util/units.h"

namespace dcs::compute {

class PcmHeatSink {
 public:
  struct Params {
    /// Latent heat absorbed between fully solid and fully melted.
    Energy latent_capacity = Energy::joules(162000.0);  // 90 W x 30 min
    /// Chip power the package removes continuously (the normal-core TDP).
    Power sustainable = Power::watts(35.0);
  };

  PcmHeatSink() : PcmHeatSink(Params{}) {}
  explicit PcmHeatSink(const Params& params);

  /// Advances the PCM state under `chip_power` for `dt`.
  void step(Power chip_power, Duration dt);

  /// Whether the PCM is fully melted: the buffer is spent.
  [[nodiscard]] bool exhausted() const noexcept;

  /// Resets to fully solid.
  void reset() noexcept { melted_ = Energy::zero(); }

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  Energy melted_ = Energy::zero();
};

}  // namespace dcs::compute
