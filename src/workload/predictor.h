// Burst prediction interfaces.
//
// The Prediction and Heuristic strategies consume forecasts: a predicted
// burst duration BDu_p and an estimated best average sprinting degree
// SDe_p. The paper evaluates robustness by perturbing the *true* values
// with a relative estimation error (Fig. 9: -100 % ... +100 %), so the
// reference implementation is an oracle analyzer plus an error wrapper.
#pragma once

#include "util/time_series.h"
#include "util/units.h"

namespace dcs::workload {

/// Ground-truth burst descriptors extracted from a demand trace.
struct BurstTruth {
  /// Aggregated time above capacity (the paper's "real burst duration").
  Duration duration = Duration::zero();
  /// Maximum demand over the trace.
  double max_degree = 1.0;
  /// Time-weighted mean demand during over-capacity periods.
  double mean_degree = 1.0;
};

/// Extracts the ground truth from a demand trace (threshold = capacity 1.0).
[[nodiscard]] BurstTruth measure_burst_truth(const TimeSeries& demand);

/// Wraps truth with a relative estimation error: value * (1 + error).
/// error = 0 is a perfect forecast; -1 predicts zero.
class ErrorfulForecast {
 public:
  ErrorfulForecast(BurstTruth truth, double relative_error);

  [[nodiscard]] Duration predicted_duration() const;
  /// Applies the error to an externally-supplied true value (the best
  /// average sprinting degree is computed by the Oracle, not the trace).
  [[nodiscard]] double apply(double true_value) const;

 private:
  BurstTruth truth_;
  double error_;
};

}  // namespace dcs::workload
