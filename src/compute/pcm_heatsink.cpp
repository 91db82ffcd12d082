#include "compute/pcm_heatsink.h"

#include <algorithm>

#include "util/check.h"

namespace dcs::compute {

PcmHeatSink::PcmHeatSink(const Params& params) : params_(params) {
  DCS_REQUIRE(params_.latent_capacity > Energy::zero(),
              "PCM capacity must be positive");
  DCS_REQUIRE(params_.sustainable > Power::zero(),
              "sustainable power must be positive");
}

void PcmHeatSink::step(Power chip_power, Duration dt) {
  DCS_REQUIRE(chip_power >= Power::zero(), "chip power must be non-negative");
  DCS_REQUIRE(dt > Duration::zero(), "dt must be positive");
  if (chip_power > params_.sustainable) {
    melted_ += (chip_power - params_.sustainable) * dt;
    melted_ = std::min(melted_, params_.latent_capacity);
  } else {
    // Spare removal capacity re-solidifies the PCM.
    const Energy freeze = (params_.sustainable - chip_power) * dt;
    melted_ = melted_ > freeze ? melted_ - freeze : Energy::zero();
  }
}

bool PcmHeatSink::exhausted() const noexcept {
  return melted_ >= params_.latent_capacity;
}

}  // namespace dcs::compute
