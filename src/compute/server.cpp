#include "compute/server.h"

#include "util/check.h"

namespace dcs::compute {

Server::Server(const Params& params) : params_(params), chip_(params.chip) {
  DCS_REQUIRE(params_.non_cpu >= Power::zero(), "non-CPU power must be non-negative");
}

Power Server::power(std::size_t active_cores, double util) const {
  return params_.non_cpu + chip_.power(active_cores, util);
}

Power Server::peak_normal_power() const {
  return params_.non_cpu + chip_.normal_peak_power();
}

Power Server::peak_sprint_power() const {
  return params_.non_cpu + chip_.peak_power();
}

}  // namespace dcs::compute
