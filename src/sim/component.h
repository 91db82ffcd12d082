// Interface for a subsystem that advances with the run's control period
// (e.g. serving::ServingLayer). core::DataCenter::run ticks the components
// in RunOptions::components once per period, in vector order, after the
// period's control step, so each sees that period's committed state.
#pragma once

#include <string_view>

#include "util/units.h"

namespace dcs::sim {

class Component {
 public:
  virtual ~Component() = default;

  /// Advances the component from `now` to `now + dt`.
  virtual void tick(Duration now, Duration dt) = 0;

  /// Stable identifier used in logs.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

}  // namespace dcs::sim
