#include "econ/profitability.h"

#include <algorithm>

#include "util/check.h"
#include "workload/burst.h"

namespace dcs::econ {

ProfitabilityAnalysis::ProfitabilityAnalysis(CostModel cost, RevenueModel revenue)
    : cost_(std::move(cost)), revenue_(std::move(revenue)) {}

ProfitBreakdown ProfitabilityAnalysis::analyze(double max_sprint_degree,
                                               double burst_minutes,
                                               std::size_t bursts,
                                               double utilization,
                                               double ut_over_u0) const {
  DCS_REQUIRE(utilization > 0.0 && utilization <= 1.0, "utilization in (0, 1]");
  ProfitBreakdown out;
  out.cost_usd = cost_.monthly_total_usd(max_sprint_degree);
  // Burst magnitude that utilizes the given fraction of the extra cores.
  const double magnitude = 1.0 + utilization * (max_sprint_degree - 1.0);
  out.request_revenue_usd =
      revenue_.request_revenue_usd(burst_minutes, magnitude, bursts);
  out.retention_revenue_usd =
      revenue_.retention_revenue_usd(magnitude, bursts, ut_over_u0);
  return out;
}

ProfitBreakdown ProfitabilityAnalysis::analyze_trace(const TimeSeries& demand,
                                                     double max_sprint_degree,
                                                     double ut_over_u0,
                                                     double months_spanned) const {
  DCS_REQUIRE(months_spanned > 0.0, "months spanned must be positive");
  ProfitBreakdown out;
  out.cost_usd = cost_.monthly_total_usd(max_sprint_degree);

  // Integrate the excess demand that sprinting serves: min(d, N) - 1 when
  // d > 1, expressed in magnitude-minutes.
  double magnitude_minutes = 0.0;
  const auto& samples = demand.samples();
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const double d = samples[i].value;
    if (d <= 1.0) continue;
    const double served_excess = std::min(d, max_sprint_degree) - 1.0;
    magnitude_minutes += served_excess * (samples[i + 1].time - samples[i].time).min();
  }
  out.request_revenue_usd = revenue_.params().downtime_usd_per_min *
                            magnitude_minutes / months_spanned;

  const workload::BurstStats stats = workload::analyze_bursts(demand, 1.0);
  const double mean_magnitude = std::max(1.0, stats.mean_burst_demand);
  const auto bursts_per_month = static_cast<std::size_t>(
      static_cast<double>(stats.burst_count) / months_spanned + 0.5);
  out.retention_revenue_usd = revenue_.retention_revenue_usd(
      std::min(mean_magnitude, max_sprint_degree), bursts_per_month, ut_over_u0);
  return out;
}

}  // namespace dcs::econ
