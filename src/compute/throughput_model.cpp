#include "compute/throughput_model.h"

#include <cmath>

#include "util/check.h"

namespace dcs::compute {

ThroughputModel::ThroughputModel(const Params& params) : params_(params) {
  DCS_REQUIRE(params_.alpha > 0.0 && params_.alpha <= 1.0, "alpha in (0, 1]");
  DCS_REQUIRE(params_.normal_cores > 0, "normal cores must be positive");
}

double ThroughputModel::throughput(std::size_t cores) const {
  const double n = static_cast<double>(cores);
  const double n0 = static_cast<double>(params_.normal_cores);
  return std::pow(n / n0, params_.alpha);
}

std::size_t ThroughputModel::cores_for_demand(double demand) const {
  DCS_REQUIRE(demand >= 0.0, "demand must be non-negative");
  if (demand <= 0.0) return 0;
  const double n0 = static_cast<double>(params_.normal_cores);
  const double n = n0 * std::pow(demand, 1.0 / params_.alpha);
  return static_cast<std::size_t>(std::ceil(n - 1e-9));
}

}  // namespace dcs::compute
