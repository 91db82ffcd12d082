#include "econ/revenue_model.h"

#include <algorithm>

#include "util/check.h"

namespace dcs::econ {

RevenueModel::RevenueModel(const Params& params) : params_(params) {
  DCS_REQUIRE(params_.downtime_usd_per_min >= 0.0,
              "downtime cost must be non-negative");
  DCS_REQUIRE(params_.minutes_per_month > 0.0, "month length must be positive");
  DCS_REQUIRE(params_.user_loss_fraction >= 0.0 && params_.user_loss_fraction <= 1.0,
              "user loss fraction in [0, 1]");
}

double RevenueModel::request_revenue_usd(double burst_minutes, double magnitude,
                                         std::size_t bursts) const {
  DCS_REQUIRE(burst_minutes >= 0.0, "burst minutes must be non-negative");
  if (magnitude <= 1.0) return 0.0;
  return params_.downtime_usd_per_min * burst_minutes * (magnitude - 1.0) *
         static_cast<double>(bursts);
}

double RevenueModel::retention_revenue_usd(double magnitude,
                                           std::size_t bursts,
                                           double ut_over_u0) const {
  DCS_REQUIRE(ut_over_u0 > 0.0, "Ut/U0 must be positive");
  if (magnitude <= 1.0) return 0.0;
  const double affected_fraction =
      std::min((magnitude - 1.0) * static_cast<double>(bursts) / ut_over_u0, 1.0);
  return monthly_user_loss_value_usd() * affected_fraction;
}

double RevenueModel::monthly_user_loss_value_usd() const {
  return params_.downtime_usd_per_min * params_.minutes_per_month *
         params_.user_loss_fraction;
}

}  // namespace dcs::econ
