#include "sim/engine.h"

#include <cmath>

#include "obs/profile.h"
#include "util/check.h"

namespace dcs::sim {

Engine::Engine(Duration step) : step_(step) {
  DCS_REQUIRE(step > Duration::zero(), "engine step must be positive");
}

void Engine::add(Component* component) {
  DCS_REQUIRE(component != nullptr, "component must not be null");
  components_.push_back(component);
}

void Engine::schedule(Duration at, std::function<void()> fn) {
  DCS_REQUIRE(at >= now_, "cannot schedule events in the past");
  // fire_due() fires events with at <= now_, so an off-grid time would
  // silently slip to the next tick boundary; require alignment instead.
  const double steps = at / step_;
  const double rounded = std::round(steps);
  DCS_REQUIRE(std::abs(steps - rounded) <= 1e-9 * std::max(1.0, rounded),
              "scheduled event time must lie on the tick grid");
  events_.schedule(at, std::move(fn));
}

void Engine::step_once() {
  const std::size_t fired = events_.fire_due(now_);
  if (fired > 0 && tracer_ != nullptr) {
    tracer_->instant(now_, "engine", "events-fired",
                     {obs::arg("count", static_cast<double>(fired))});
  }
  for (Component* c : components_) c->tick(now_, step_);
  now_ += step_;
}

std::size_t Engine::run_until(Duration end) {
  DCS_OBS_SCOPE("sim.run");
  if (tracer_ != nullptr) {
    tracer_->instant(now_, "engine", "run-start",
                     {obs::arg("end_s", end.sec()),
                      obs::arg("step_s", step_.sec())});
  }
  std::size_t ticks = 0;
  while (now_ < end && !stop_requested_) {
    step_once();
    ++ticks;
  }
  if (tracer_ != nullptr) {
    tracer_->instant(now_, "engine", "run-end",
                     {obs::arg("ticks", static_cast<double>(ticks)),
                      obs::arg("stopped", stop_requested_)});
  }
  return ticks;
}

}  // namespace dcs::sim
