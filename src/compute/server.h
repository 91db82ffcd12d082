// A server: one many-core chip plus non-CPU components (memory, disk, NIC,
// fans) drawing a constant 20 W (the paper's conservative setting).
// Peak-normal power: 20 + 5 + 12 x 2.5 = 55 W.
#pragma once

#include <cstddef>

#include "compute/chip.h"
#include "util/units.h"

namespace dcs::compute {

class Server {
 public:
  struct Params {
    Chip::Params chip{};
    Power non_cpu = Power::watts(20.0);
  };

  Server() : Server(Params{}) {}
  explicit Server(const Params& params);

  [[nodiscard]] Power power(std::size_t active_cores, double util) const;
  /// Power at the normal core count, fully utilized (55 W default).
  [[nodiscard]] Power peak_normal_power() const;
  /// Power with every core on and fully utilized (sprint ceiling).
  [[nodiscard]] Power peak_sprint_power() const;

  [[nodiscard]] const Chip& chip() const noexcept { return chip_; }
  [[nodiscard]] Power non_cpu() const noexcept { return params_.non_cpu; }

 private:
  Params params_;
  Chip chip_;
};

}  // namespace dcs::compute
