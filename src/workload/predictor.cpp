#include "workload/predictor.h"

#include <algorithm>

#include "util/check.h"
#include "workload/burst.h"

namespace dcs::workload {

BurstTruth measure_burst_truth(const TimeSeries& demand) {
  const BurstStats stats = analyze_bursts(demand, 1.0);
  BurstTruth truth;
  truth.duration = stats.over_capacity_time;
  truth.max_degree = std::max(1.0, stats.peak_demand);
  truth.mean_degree = std::max(1.0, stats.mean_burst_demand);
  return truth;
}

ErrorfulForecast::ErrorfulForecast(BurstTruth truth, double relative_error)
    : truth_(truth), error_(relative_error) {
  DCS_REQUIRE(relative_error >= -1.0, "error below -100% is meaningless");
}

Duration ErrorfulForecast::predicted_duration() const {
  return truth_.duration * (1.0 + error_);
}

double ErrorfulForecast::apply(double true_value) const {
  return true_value * (1.0 + error_);
}

}  // namespace dcs::workload
