// Online burst statistics: learns burst durations and magnitudes from the
// demand stream itself, so the Prediction and Heuristic strategies can run
// without oracle-supplied forecasts. This implements the paper's pointer to
// workload-prediction literature ([5], [19], [36], [38]) with a simple,
// fully-deterministic estimator: exponentially-weighted statistics over the
// bursts observed so far.
#pragma once

#include <cstddef>

#include "util/units.h"

namespace dcs::workload {

class OnlineBurstPredictor {
 public:
  struct Params {
    /// Demand level above which a burst is in progress.
    double threshold = 1.0;
    /// EW weight of the newest completed burst (1 = only the last burst).
    double learning_rate = 0.5;
    /// Forecasts before any burst completed.
    Duration prior_duration = Duration::minutes(10);
    double prior_max_degree = 3.0;
  };

  OnlineBurstPredictor() : OnlineBurstPredictor(Params{}) {}
  explicit OnlineBurstPredictor(const Params& params);

  /// Feeds one demand observation covering `dt`.
  void observe(double demand, Duration dt);

  /// Predicted duration of the next (or current) burst.
  [[nodiscard]] Duration predicted_duration() const;
  /// Predicted peak demand during bursts.
  [[nodiscard]] double predicted_max_degree() const;

  /// Completed bursts learned so far.
  [[nodiscard]] std::size_t bursts_completed() const noexcept { return completed_; }
  [[nodiscard]] bool in_burst() const noexcept { return in_burst_; }

 private:
  void finish_burst();

  Params params_;
  bool in_burst_ = false;
  Duration current_elapsed_ = Duration::zero();
  double current_max_ = 1.0;
  std::size_t completed_ = 0;
  // EW estimates (valid once completed_ > 0).
  Duration est_duration_ = Duration::zero();
  double est_max_degree_ = 1.0;
};

}  // namespace dcs::workload
