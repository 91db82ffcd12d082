// Interface implemented by every simulated subsystem (breakers, batteries,
// chillers, controllers, ...). The engine advances all registered components
// with a fixed step, in registration order — the data-center wiring
// registers producers (workload, compute) before the controller and the
// controller before the physical plant, so each tick sees a consistent
// dataflow.
#pragma once

#include <string_view>

#include "util/units.h"

namespace dcs::sim {

class Component {
 public:
  virtual ~Component() = default;

  /// Advances the component from `now` to `now + dt`.
  virtual void tick(Duration now, Duration dt) = 0;

  /// Stable identifier used in logs and recorder channels.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

}  // namespace dcs::sim
