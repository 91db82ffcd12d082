// Combines cost and revenue into the paper's Fig. 5 analysis and the
// trace-driven monthly-revenue estimate of Section V-D.
#pragma once

#include "econ/cost_model.h"
#include "econ/revenue_model.h"
#include "util/time_series.h"

namespace dcs::econ {

struct ProfitBreakdown {
  double cost_usd = 0.0;
  double request_revenue_usd = 0.0;
  double retention_revenue_usd = 0.0;

  [[nodiscard]] double total_revenue_usd() const noexcept {
    return request_revenue_usd + retention_revenue_usd;
  }
  [[nodiscard]] double profit_usd() const noexcept {
    return total_revenue_usd() - cost_usd;
  }
};

class ProfitabilityAnalysis {
 public:
  ProfitabilityAnalysis(CostModel cost, RevenueModel revenue);

  /// Fig. 5 point: K bursts of `burst_minutes` per month whose magnitude
  /// utilizes `utilization` (0.5 / 0.75 / 1.0 for R50/R75/R100) of the
  /// additional cores at max sprinting degree N, with Ut/U0 users.
  [[nodiscard]] ProfitBreakdown analyze(double max_sprint_degree,
                                        double burst_minutes,
                                        std::size_t bursts,
                                        double utilization,
                                        double ut_over_u0) const;

  /// Trace-driven variant (the "$19 M" example): integrates the excess
  /// demand of a month-long demand trace (normalized to the no-sprint
  /// capacity) and prices it; demand above N is unserveable even when
  /// sprinting. `bursts` is the number of over-capacity episodes, used for
  /// the retention term.
  [[nodiscard]] ProfitBreakdown analyze_trace(const TimeSeries& demand,
                                              double max_sprint_degree,
                                              double ut_over_u0,
                                              double months_spanned) const;

  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] const RevenueModel& revenue() const noexcept { return revenue_; }

 private:
  CostModel cost_;
  RevenueModel revenue_;
};

}  // namespace dcs::econ
