// Fixed-step simulation engine.
//
// The paper's controller operates on a 1-second control period against
// second-granularity traces, so every component advances on a fixed tick
// grid — that is what the physics integrators and the recorder channels
// are written against. Each tick first fires the one-shot events due at
// that time, then ticks every component in registration order. One-shot
// events must sit on the tick grid (schedule() enforces alignment), which
// fixes their firing time exactly.
#pragma once

#include <functional>
#include <vector>

#include "obs/trace.h"
#include "sim/component.h"
#include "sim/event_queue.h"
#include "util/units.h"

namespace dcs::sim {

class Engine {
 public:
  /// `step` is the tick width (default 1 s, the paper's control period).
  explicit Engine(Duration step = Duration::seconds(1));

  /// Registers a component; the engine does not take ownership. Components
  /// tick in registration order.
  void add(Component* component);

  /// Schedules `fn` to run at simulated time `at` (before the components of
  /// that tick). `at` must lie on the tick grid: an off-grid event would
  /// otherwise silently slip to the next tick boundary.
  void schedule(Duration at, std::function<void()> fn);

  /// Runs until `end` (inclusive of the tick that starts at end - step).
  /// Returns the number of ticks executed. A stop requested before the call
  /// (e.g. a drain signal between setup and run) is honored: no tick runs.
  std::size_t run_until(Duration end);

  /// Runs a single tick.
  void step_once();

  /// Requests the run loop to exit after the current tick.
  void request_stop() noexcept { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const noexcept { return stop_requested_; }
  /// Clears a previous stop request so the engine can run again.
  void clear_stop() noexcept { stop_requested_ = false; }

  /// Optional structured-trace sink (must outlive the engine use; nullptr
  /// disables tracing). The engine emits run-start / run-end instants and
  /// one event per fired one-shot callback — it never prints, same
  /// discipline as util/log.h.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  [[nodiscard]] Duration now() const noexcept { return now_; }
  [[nodiscard]] Duration step() const noexcept { return step_; }

 private:
  Duration step_;
  Duration now_ = Duration::zero();
  bool stop_requested_ = false;
  obs::Tracer* tracer_ = nullptr;
  std::vector<Component*> components_;
  EventQueue events_;
};

}  // namespace dcs::sim
