#include "faults/injector.h"

#include <algorithm>

#include "util/check.h"
#include "util/log.h"

namespace dcs::faults {

FaultInjector::FaultInjector(FaultSchedule schedule, const Bindings& bindings,
                             std::uint64_t seed)
    : schedule_(std::move(schedule)), bindings_(bindings), rng_(seed) {
  DCS_REQUIRE(bindings_.topology != nullptr, "injector needs a power topology");
  DCS_REQUIRE(bindings_.cooling != nullptr, "injector needs a cooling plant");
  was_active_.assign(schedule_.faults().size(), false);
}

void FaultInjector::apply(Duration now) {
  State s;
  const auto& faults = schedule_.faults();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    const bool active = f.active_at(now);
    if (active != was_active_[i]) {
      const std::string_view kind = to_string(f.kind);
      if (decisions_ != nullptr) {
        decisions_->emit(active ? obs::DecisionRule::kFaultInject
                                : obs::DecisionRule::kFaultClear,
                         {{"magnitude", f.magnitude},
                          {"severity", severity_of(f)}},
                         {},
                         {obs::arg("kind", kind),
                          obs::arg("index", static_cast<double>(i))});
      }
      DCS_LOG_INFO << "fault " << kind << "[" << i << "] "
                   << (active ? "injected" : "cleared") << " at t="
                   << now.sec() << "s";
      was_active_[i] = active;
    }
    if (!active) continue;
    ++s.active_count;
    s.severity = std::max(s.severity, severity_of(f));
    switch (f.kind) {
      case FaultKind::kUpsBankOutage:
        s.ups_availability *= 1.0 - f.magnitude;
        break;
      case FaultKind::kUpsCapacityFade:
        s.ups_capacity_factor *= 1.0 - f.magnitude;
        break;
      case FaultKind::kBreakerDerating:
        s.breaker_rating_factor *= 1.0 - f.magnitude;
        break;
      case FaultKind::kBreakerNuisanceBias:
        s.breaker_trip_bias = std::max(s.breaker_trip_bias, f.magnitude);
        break;
      case FaultKind::kChillerFailure:
        s.chiller_capacity_factor *= 1.0 - f.magnitude;
        break;
      case FaultKind::kChillerDegradedCop:
        s.chiller_cop_penalty += f.magnitude;
        break;
      case FaultKind::kTesValveStuck:
        s.tes_discharge_factor *= 1.0 - f.magnitude;
        break;
      case FaultKind::kGeneratorStartFailure:
        s.generator_start_inhibited = true;
        break;
      case FaultKind::kGeneratorDelayedStart:
        s.generator_extra_delay += Duration::seconds(f.magnitude);
        break;
      case FaultKind::kSensorStale:
      case FaultKind::kSensorDropped:
      case FaultKind::kSensorNoisy:
        s.sensor_fault_active = true;
        break;
    }
  }
  state_ = s;
  ever_active_ = ever_active_ || s.active_count > 0;

  // Re-pushing an unchanged state is a no-op on every bound component (the
  // set_fault hooks assign factors; the battery's stored-charge clamp only
  // bites when the capacity factor drops), so skip the push while the
  // merged factors hold steady — outside fault windows that is every tick.
  if (pushed_ && push_equal(s, last_pushed_)) return;
  bindings_.topology->set_fault_all(s.breaker_rating_factor,
                                    s.breaker_trip_bias, s.ups_availability,
                                    s.ups_capacity_factor);
  bindings_.cooling->set_fault(s.chiller_capacity_factor, s.chiller_cop_penalty);
  if (bindings_.tes != nullptr) {
    bindings_.tes->set_fault(s.tes_discharge_factor);
  }
  if (bindings_.generator != nullptr) {
    bindings_.generator->set_fault(s.generator_start_inhibited,
                                   s.generator_extra_delay);
  }
  last_pushed_ = s;
  pushed_ = true;
}

bool FaultInjector::push_equal(const State& a, const State& b) noexcept {
  return a.breaker_rating_factor == b.breaker_rating_factor &&
         a.breaker_trip_bias == b.breaker_trip_bias &&
         a.ups_availability == b.ups_availability &&
         a.ups_capacity_factor == b.ups_capacity_factor &&
         a.chiller_capacity_factor == b.chiller_capacity_factor &&
         a.chiller_cop_penalty == b.chiller_cop_penalty &&
         a.tes_discharge_factor == b.tes_discharge_factor &&
         a.generator_start_inhibited == b.generator_start_inhibited &&
         a.generator_extra_delay == b.generator_extra_delay;
}

double FaultInjector::measure(SensorChannel channel, Duration now,
                              double true_value) {
  bool dropped = false;
  bool stale = false;
  double noise_stddev = 0.0;
  for (const Fault& f : schedule_.faults()) {
    if (!is_sensor_fault(f.kind) || f.channel != channel || !f.active_at(now)) {
      continue;
    }
    if (f.kind == FaultKind::kSensorDropped) dropped = true;
    if (f.kind == FaultKind::kSensorStale) stale = true;
    if (f.kind == FaultKind::kSensorNoisy) {
      noise_stddev = std::max(noise_stddev, f.magnitude);
    }
  }

  SensorState& s = sensors_[static_cast<std::size_t>(channel)];
  if (dropped) {
    s.latched = false;
    return 0.0;
  }
  if (stale) {
    if (!s.latched) {
      s.latched = true;
      s.latch = s.last;
    }
    return s.latch;
  }
  double value = true_value;
  if (noise_stddev > 0.0) {
    value = std::max(0.0, value * (1.0 + noise_stddev * rng_.normal()));
  }
  s.latched = false;
  s.last = value;
  return value;
}

}  // namespace dcs::faults
