#include "workload/online_predictor.h"

#include <algorithm>

#include "util/check.h"

namespace dcs::workload {

OnlineBurstPredictor::OnlineBurstPredictor(const Params& params)
    : params_(params) {
  DCS_REQUIRE(params_.threshold > 0.0, "threshold must be positive");
  DCS_REQUIRE(params_.learning_rate > 0.0 && params_.learning_rate <= 1.0,
              "learning rate in (0, 1]");
  DCS_REQUIRE(params_.prior_duration > Duration::zero(),
              "prior duration must be positive");
  DCS_REQUIRE(params_.prior_max_degree >= 1.0, "prior max degree >= 1");
}

void OnlineBurstPredictor::observe(double demand, Duration dt) {
  DCS_REQUIRE(demand >= 0.0, "demand must be non-negative");
  DCS_REQUIRE(dt > Duration::zero(), "dt must be positive");
  if (demand > params_.threshold) {
    in_burst_ = true;
    current_elapsed_ += dt;
    current_max_ = std::max(current_max_, demand);
    return;
  }
  if (in_burst_) finish_burst();
}

void OnlineBurstPredictor::finish_burst() {
  if (completed_ == 0) {
    est_duration_ = current_elapsed_;
    est_max_degree_ = current_max_;
  } else {
    const double a = params_.learning_rate;
    est_duration_ = est_duration_ * (1.0 - a) + current_elapsed_ * a;
    est_max_degree_ = est_max_degree_ * (1.0 - a) + current_max_ * a;
  }
  ++completed_;
  in_burst_ = false;
  current_elapsed_ = Duration::zero();
  current_max_ = 1.0;
}

Duration OnlineBurstPredictor::predicted_duration() const {
  // While a burst is in progress its elapsed time is a lower bound that can
  // exceed the historical estimate — take the max so the forecast never
  // claims a burst will end in the past.
  const Duration base =
      completed_ > 0 ? est_duration_ : params_.prior_duration;
  return std::max(base, current_elapsed_);
}

double OnlineBurstPredictor::predicted_max_degree() const {
  const double base =
      completed_ > 0 ? est_max_degree_ : params_.prior_max_degree;
  return std::max(base, current_max_);
}

}  // namespace dcs::workload
