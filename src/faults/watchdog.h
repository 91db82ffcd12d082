// Per-tick invariant watchdog (DESIGN.md section 6).
//
// Under fault injection the controller's safety argument is no longer a
// static proof — a derated breaker or a blinded sensor can push the plant
// past an invariant without any exception firing. The watchdog re-checks
// the invariants every tick on the *true* component state and turns
// violations into a structured report on RunResult instead of silent bad
// numbers:
//   * every breaker's trip accumulator stays below 1 (and never trips),
//   * every UPS bank's state of charge stays within [reserve floor, 1],
//   * the TES state of charge stays within [0, 1],
//   * the room stays at or below the critical threshold.
#pragma once

#include <cstddef>
#include <string>

#include "obs/decision.h"
#include "power/topology.h"
#include "thermal/room_model.h"
#include "thermal/tes_tank.h"
#include "util/units.h"

namespace dcs::faults {

struct WatchdogReport {
  std::size_t checks = 0;
  /// Total violating (tick, invariant) pairs; a persistent violation counts
  /// every tick it persists.
  std::size_t violations = 0;
  std::string first_message;
  Duration first_time = Duration::infinity();
  [[nodiscard]] bool ok() const noexcept { return violations == 0; }
};

class Watchdog {
 public:
  struct Options {
    /// UPS reserve floor the banks must never discharge below.
    double ups_floor = 0.0;
    /// Breaker checks are meaningless for the uncontrolled baseline (a trip
    /// is its expected failure mode, not an invariant violation).
    bool check_breakers = true;
    /// Room check applies to the modes that promise thermal safety.
    bool check_room = true;
  };

  explicit Watchdog(const Options& options) : options_(options) {}

  /// Checks every invariant against the current plant state.
  void check(Duration now, const power::PowerTopology& topology,
             const thermal::RoomModel& room, const thermal::TesTank* tes);

  [[nodiscard]] const WatchdogReport& report() const noexcept {
    return report_;
  }

  /// Optional decision-provenance log: check() emits one
  /// watchdog-violation trigger per violation *episode* (the tick a clean
  /// state turns violating), not per persisting tick — chains want the
  /// onset, and the report counts every violating tick.
  void set_decision_log(obs::DecisionLog* decisions) noexcept {
    decisions_ = decisions;
  }

 private:
  void fail(Duration now, std::string message);

  Options options_;
  WatchdogReport report_;
  obs::DecisionLog* decisions_ = nullptr;
  bool prev_violating_ = false;
  std::string last_message_;
};

}  // namespace dcs::faults
