#include "thermal/room_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dcs::thermal {

RoomModel::RoomModel(const Params& params)
    : params_(params),
      capacitance_(params.calibration_power.w() * params.calibration_time.sec() /
                   params.threshold_rise.c()),
      peak_(params.setpoint) {
  DCS_REQUIRE(params_.calibration_power > Power::zero(),
              "calibration power must be positive");
  DCS_REQUIRE(params_.threshold_rise > Temperature::celsius(0.0),
              "threshold rise must be positive");
  DCS_REQUIRE(params_.calibration_time > Duration::zero(),
              "calibration time must be positive");
  DCS_REQUIRE(params_.recovery_tau > Duration::zero(),
              "recovery tau must be positive");
}

void RoomModel::step(Power generated, Power absorbed, Duration dt) {
  DCS_REQUIRE(generated >= Power::zero(), "generated heat must be non-negative");
  DCS_REQUIRE(absorbed >= Power::zero(), "absorbed heat must be non-negative");
  DCS_REQUIRE(dt > Duration::zero(), "dt must be positive");
  const Power gap = generated - absorbed;
  if (gap > Power::zero()) {
    rise_ += Temperature::celsius(gap.w() * dt.sec() / capacitance_);
  } else {
    // Overcooling: exponential recovery toward the setpoint. The surplus
    // absorption accelerates recovery but never undershoots the setpoint.
    // The decay factor depends only on dt, which is the fixed control period
    // on the hot path — memoize the exp for the repeated-dt case.
    if (dt.sec() != decay_cache_dt_s_) {
      decay_cache_ = std::exp(-(dt / params_.recovery_tau));
      decay_cache_dt_s_ = dt.sec();
    }
    const double decay = decay_cache_;
    double r = rise_.c() * decay;
    r += gap.w() * dt.sec() / capacitance_;  // gap is negative here
    rise_ = Temperature::celsius(std::max(0.0, r));
  }
  peak_ = std::max(peak_, temperature());
}

Temperature RoomModel::temperature() const noexcept {
  return params_.setpoint + rise_;
}

bool RoomModel::over_threshold() const noexcept {
  return rise_ > params_.threshold_rise;
}

Duration RoomModel::time_to_threshold_from(Temperature rise, Power gap) const {
  if (gap <= Power::zero()) return Duration::infinity();
  const double remaining_c = params_.threshold_rise.c() - rise.c();
  if (remaining_c <= 0.0) return Duration::zero();
  return Duration::seconds(remaining_c * capacitance_ / gap.w());
}

}  // namespace dcs::thermal
