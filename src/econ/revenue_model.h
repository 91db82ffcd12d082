// Revenue side of the paper's Section V-D analysis.
//
// Two components:
//  1. Request revenue — denying requests is equivalent to partial downtime,
//     priced at $7,900 per minute for an average-scale data center [40]:
//     R_req = $7,900 * L * (M - 1) * K for K bursts of L minutes at burst
//     magnitude M (normalized to the no-sprint maximum; M <= 1 needs no
//     sprinting).
//  2. Retention revenue — Google measured 0.2 % permanent user loss from a
//     0.4 s slowdown [9]. The monthly revenue of 0.2 % of users is
//     $7,900 * 43,200 * 0.2 % = $682,560; the fraction of users affected by
//     the K bursts is min[U0 (M - 1) K, Ut] / Ut.
#pragma once

#include <cstddef>

namespace dcs::econ {

class RevenueModel {
 public:
  struct Params {
    double downtime_usd_per_min = 7900.0;
    double minutes_per_month = 43200.0;
    double user_loss_fraction = 0.002;
  };

  RevenueModel() : RevenueModel(Params{}) {}
  explicit RevenueModel(const Params& params);

  /// Revenue from serving the excess requests of K bursts of `burst_minutes`
  /// at magnitude M (normalized; returns 0 for M <= 1).
  [[nodiscard]] double request_revenue_usd(double burst_minutes, double magnitude,
                                           std::size_t bursts) const;

  /// Monthly revenue of the would-be-lost user fraction:
  /// ($682,560 / Ut) * min[U0 (M-1) K, Ut], expressed via ut_over_u0 = Ut/U0.
  [[nodiscard]] double retention_revenue_usd(double magnitude,
                                             std::size_t bursts,
                                             double ut_over_u0) const;

  /// Monthly revenue equivalent of 0.2 % of all users ($682,560 default).
  [[nodiscard]] double monthly_user_loss_value_usd() const;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

}  // namespace dcs::econ
