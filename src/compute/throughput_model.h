// Sub-linear core-count-to-throughput model.
//
// The paper's SPECjbb2005 measurements on a quad-core i5 show per-core
// throughput *decreasing* as cores are added (memory bandwidth, shared
// cache), which is why a constrained sprinting degree can be more
// power-efficient than Greedy. We model aggregate throughput as
// T(n) = n^alpha with alpha in (0, 1]; alpha = 1 is perfect scaling,
// alpha = 0.85 (default) loses ~19 % per-core efficiency from 12 to 48 cores.
//
// All performance numbers are normalized to the throughput of the normal
// core count, matching the paper's "performance normalized to the
// performance without sprinting".
#pragma once

#include <cstddef>

namespace dcs::compute {

class ThroughputModel {
 public:
  struct Params {
    double alpha = 0.85;
    std::size_t normal_cores = 12;
  };

  ThroughputModel() : ThroughputModel(Params{}) {}
  explicit ThroughputModel(const Params& params);

  /// Aggregate throughput of `cores` fully-utilized cores, normalized so
  /// that throughput(normal_cores) == 1.
  [[nodiscard]] double throughput(std::size_t cores) const;

  /// Smallest core count whose throughput covers `demand` (normalized
  /// units). May exceed any physical chip; callers clamp.
  [[nodiscard]] std::size_t cores_for_demand(double demand) const;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

}  // namespace dcs::compute
