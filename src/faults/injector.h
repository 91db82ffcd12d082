// Applies a FaultSchedule to a live plant, tick by tick.
//
// apply(now) folds the faults active at `now` into one State (factors
// multiply, biases take the worst) and pushes it into the bound component
// models: PDU breakers and UPS banks, the cooling plant, the TES tank and
// the generator. Outside every fault window the pushed state is exactly
// neutral, so an injector whose schedule never activates leaves the run
// bit-identical to a run without one.
//
// measure() is the controller-boundary sensor filter: stale faults latch
// the last healthy reading, dropped faults read zero, noisy faults add
// relative Gaussian noise from a seeded stream (reproducible per run).
#pragma once

#include <cstdint>
#include <vector>

#include "faults/schedule.h"
#include "obs/decision.h"
#include "power/generator.h"
#include "power/topology.h"
#include "thermal/cooling_plant.h"
#include "thermal/tes_tank.h"
#include "util/rng.h"
#include "util/units.h"

namespace dcs::faults {

class FaultInjector {
 public:
  struct Bindings {
    power::PowerTopology* topology = nullptr;
    thermal::CoolingPlant* cooling = nullptr;
    thermal::TesTank* tes = nullptr;               // may be null (no TES)
    power::DieselGenerator* generator = nullptr;   // may be null
  };

  /// The combined effect of the faults active at the last apply() time.
  /// All factors are 1 and all biases 0 when nothing is active.
  struct State {
    std::size_t active_count = 0;
    /// Worst severity_of() over the active faults, in [0, 1].
    double severity = 0.0;
    double ups_availability = 1.0;
    double ups_capacity_factor = 1.0;
    double breaker_rating_factor = 1.0;
    double breaker_trip_bias = 0.0;
    double chiller_capacity_factor = 1.0;
    double chiller_cop_penalty = 0.0;
    double tes_discharge_factor = 1.0;
    bool generator_start_inhibited = false;
    Duration generator_extra_delay = Duration::zero();
    bool sensor_fault_active = false;
  };

  FaultInjector(FaultSchedule schedule, const Bindings& bindings,
                std::uint64_t seed = 0x5eedu);

  /// Recomputes the active-fault State for `now` and pushes it into every
  /// bound component. Call once per tick, before the controller steps.
  void apply(Duration now);

  [[nodiscard]] const State& state() const noexcept { return state_; }
  /// True once any fault has been active during the run.
  [[nodiscard]] bool ever_active() const noexcept { return ever_active_; }

  /// Optional decision-provenance log: apply() emits one fault-inject
  /// trigger record when a scheduled fault becomes active and one
  /// fault-clear record when it ends, so every downstream ladder move or
  /// sprint end can cite the fault that set it off.
  void set_decision_log(obs::DecisionLog* decisions) noexcept {
    decisions_ = decisions;
  }

  /// Filters one sensor reading through the sensor faults active at `now`.
  /// Mutates latch/noise state, so call exactly once per channel per tick
  /// (extra calls stay deterministic but consume the noise stream).
  [[nodiscard]] double measure(SensorChannel channel, Duration now,
                               double true_value);

 private:
  struct SensorState {
    double last = 0.0;     // last healthy reading, for stale latching
    double latch = 0.0;
    bool latched = false;
  };

  /// True when the fields apply() pushes into components match (the
  /// active_count/severity/sensor fields are bookkeeping, not pushed).
  [[nodiscard]] static bool push_equal(const State& a, const State& b) noexcept;

  FaultSchedule schedule_;
  Bindings bindings_;
  State state_;
  State last_pushed_;
  bool pushed_ = false;
  Rng rng_;
  obs::DecisionLog* decisions_ = nullptr;
  bool ever_active_ = false;
  SensorState sensors_[3];
  std::vector<bool> was_active_;  // per scheduled fault, for edge detection
};

}  // namespace dcs::faults
