// A validated, time-ordered collection of faults for one run.
//
// Schedules are plain data: build one by add()ing faults, scale a whole
// schedule's magnitudes for severity sweeps, or draw a reproducible random
// schedule for property tests. An empty schedule injects nothing and the
// DataCenter skips the injector entirely (the fault-free path stays
// bit-identical).
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault.h"
#include "util/units.h"

namespace dcs::faults {

class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Validates and appends one fault. Throws std::invalid_argument on a
  /// malformed window or an out-of-range magnitude.
  void add(const Fault& fault);

  [[nodiscard]] const std::vector<Fault>& faults() const noexcept {
    return faults_;
  }
  [[nodiscard]] bool empty() const noexcept { return faults_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return faults_.size(); }

  /// Reproducible random schedule of 2-4 infrastructure faults with
  /// magnitudes and windows inside a survivable envelope (bounded
  /// derating, bounded windows) so a controlled run can always ride
  /// through. `severity` in [0, 1] scales every magnitude; the draw
  /// sequence does not depend on it, so the same seed yields the same
  /// kinds and windows at every severity.
  [[nodiscard]] static FaultSchedule random(std::uint64_t seed,
                                            Duration horizon, double severity);

 private:
  std::vector<Fault> faults_;
};

}  // namespace dcs::faults
