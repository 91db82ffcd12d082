#include "compute/dvfs.h"

#include <cmath>

#include "util/check.h"

namespace dcs::compute {

DvfsModel::DvfsModel(const Params& params) : params_(params) {
  DCS_REQUIRE(params_.min_multiplier > 0.0, "min multiplier must be positive");
  DCS_REQUIRE(params_.max_multiplier >= params_.min_multiplier,
              "max multiplier below min");
  DCS_REQUIRE(params_.dynamic_exponent >= 1.0, "dynamic exponent >= 1");
}

double DvfsModel::power_multiplier(double frequency) const {
  DCS_REQUIRE(frequency >= params_.min_multiplier &&
                  frequency <= params_.max_multiplier,
              "frequency outside the DVFS range");
  return std::pow(frequency, params_.dynamic_exponent);
}

double DvfsModel::performance(double frequency) const {
  DCS_REQUIRE(frequency >= params_.min_multiplier &&
                  frequency <= params_.max_multiplier,
              "frequency outside the DVFS range");
  return frequency;
}

}  // namespace dcs::compute
