#include "power/circuit_breaker.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dcs::power {

CircuitBreaker::CircuitBreaker(std::string name, const Params& params)
    : name_(std::move(name)), params_(params) {
  DCS_REQUIRE(params_.rated > Power::zero(), "rated power must be positive");
  DCS_REQUIRE(params_.cooling_tau > Duration::zero(),
              "cooling time constant must be positive");
}

double CircuitBreaker::load_ratio(Power load) const {
  DCS_REQUIRE(load >= Power::zero(), "load must be non-negative");
  return load / effective_rated();
}

void CircuitBreaker::apply_load(Power load, Duration dt) {
  DCS_REQUIRE(dt > Duration::zero(), "dt must be positive");
  if (tripped_) return;
  const Duration trip_time = params_.curve.time_to_trip(load_ratio(load));
  if (trip_time.is_infinite()) {
    // Cooling: exponential decay toward zero.
    if (dt.sec() != decay_cache_dt_s_) {
      decay_cache_ = std::exp(-(dt / params_.cooling_tau));
      decay_cache_dt_s_ = dt.sec();
    }
    heat_ *= decay_cache_;
    return;
  }
  heat_ += dt / trip_time;
  if (heat_ >= 1.0 - trip_bias_) {
    heat_ = 1.0;
    tripped_ = true;
  }
}

Duration CircuitBreaker::time_to_trip_at(Power load) const {
  if (tripped_) return Duration::zero();
  const Duration trip_time = params_.curve.time_to_trip(load_ratio(load));
  if (trip_time.is_infinite()) return Duration::infinity();
  const double headroom = std::max(0.0, 1.0 - trip_bias_ - heat_);
  return trip_time * headroom;
}

Power CircuitBreaker::max_load_for(Duration hold) const {
  if (tripped_) return Power::zero();
  const double headroom = 1.0 - trip_bias_ - heat_;
  // Holding for `hold` from thermal state `heat_` needs a fresh-element trip
  // time of at least hold / headroom.
  Duration required = Duration::infinity();
  if (!hold.is_infinite() && headroom > 0.0) {
    required = hold / headroom;
  }
  const double ratio = params_.curve.max_ratio_for(required);
  return effective_rated() * ratio;
}

void CircuitBreaker::reset() noexcept {
  heat_ = 0.0;
  tripped_ = false;
}

void CircuitBreaker::set_fault(double rating_factor, double trip_bias) noexcept {
  rating_factor_ = rating_factor;
  trip_bias_ = trip_bias;
}

}  // namespace dcs::power
