#include "compute/fleet.h"

#include <algorithm>

#include "util/check.h"

namespace dcs::compute {

Fleet::Fleet(const Params& params)
    : params_(params), server_(params.server), throughput_(params.throughput) {
  DCS_REQUIRE(params_.servers_per_pdu > 0, "servers per PDU must be positive");
  DCS_REQUIRE(params_.pdu_count > 0, "PDU count must be positive");
  DCS_REQUIRE(params_.throughput.normal_cores == params_.server.chip.normal_cores,
              "throughput model and chip must agree on the normal core count");
  throughput_by_cores_.resize(params_.server.chip.total_cores + 1);
  for (std::size_t n = 0; n < throughput_by_cores_.size(); ++n) {
    throughput_by_cores_[n] = throughput_.throughput(n);
  }
}

Fleet::Operation Fleet::operate(double demand, double degree_cap) const {
  DCS_REQUIRE(demand >= 0.0, "demand must be non-negative");
  const std::size_t normal = server_.chip().params().normal_cores;
  const std::size_t cap = cap_cores(degree_cap);
  // Activate just enough cores for the demand, never below normal, never
  // above the strategy's bound. With the bound at the normal count the clamp
  // pins the answer regardless of what the demand asks for.
  const std::size_t active =
      cap == normal
          ? normal
          : std::clamp(throughput_.cores_for_demand(demand), normal, cap);
  return operate_with_cores(demand, active);
}

std::size_t Fleet::cap_cores(double degree_cap) const {
  DCS_REQUIRE(degree_cap >= 1.0, "degree cap must be at least 1 (normal cores stay on)");
  const Chip& chip = server_.chip();
  return std::max(chip.params().normal_cores,
                  chip.cores_for_degree(
                      std::min(degree_cap, chip.max_sprint_degree())));
}

Fleet::Operation Fleet::operate_with_cores(double demand,
                                           std::size_t active_cores) const {
  const Chip& chip = server_.chip();
  DCS_REQUIRE(active_cores >= 1 && active_cores <= chip.params().total_cores,
              "active core count out of range");
  Operation op;
  op.active_cores = active_cores;
  op.degree = chip.degree_for_cores(active_cores);
  const double cap = throughput_by_cores_[active_cores];
  op.achieved = std::min(demand, cap);
  op.utilization = cap > 0.0 ? op.achieved / cap : 0.0;
  op.per_server = server_.power(active_cores, op.utilization);
  op.per_pdu = op.per_server * static_cast<double>(params_.servers_per_pdu);
  op.fleet_total = op.per_pdu * static_cast<double>(params_.pdu_count);
  return op;
}

}  // namespace dcs::compute
