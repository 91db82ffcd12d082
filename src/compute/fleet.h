// The homogeneous server fleet: translates a normalized workload demand and
// a sprinting-degree decision into active cores, utilization, achieved
// throughput and electrical power at server / PDU / fleet granularity.
//
// Normalization convention (paper Section VI/VII): demand and throughput are
// expressed relative to the fleet's capacity with the normal core count
// (demand 1.0 = "peak computing performance without sprinting").
#pragma once

#include <cstddef>
#include <vector>

#include "compute/server.h"
#include "compute/throughput_model.h"
#include "util/units.h"

namespace dcs::compute {

class Fleet {
 public:
  struct Params {
    Server::Params server{};
    ThroughputModel::Params throughput{};
    std::size_t servers_per_pdu = 200;
    std::size_t pdu_count = 909;
  };

  /// The fleet's operating point for one control step.
  struct Operation {
    std::size_t active_cores = 0;  ///< per server
    double degree = 1.0;           ///< active / normal cores
    double utilization = 0.0;      ///< average utilization of active cores
    double achieved = 0.0;         ///< normalized throughput delivered
    Power per_server;
    Power per_pdu;
    Power fleet_total;
  };

  Fleet() : Fleet(Params{}) {}
  explicit Fleet(const Params& params);

  /// Serves `demand` (normalized) with the sprinting degree capped at
  /// `degree_cap` (>= 1). Activates only as many cores as the demand needs
  /// (the real sprinting degree can be lower than the bound, Section IV-A).
  [[nodiscard]] Operation operate(double demand, double degree_cap) const;

  /// The most cores per server `operate` activates under `degree_cap`.
  [[nodiscard]] std::size_t cap_cores(double degree_cap) const;

  /// Operating point with an explicit per-server active-core count.
  [[nodiscard]] Operation operate_with_cores(double demand,
                                             std::size_t active_cores) const;

  [[nodiscard]] const Server& server() const noexcept { return server_; }
  [[nodiscard]] const ThroughputModel& throughput() const noexcept { return throughput_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  Server server_;
  ThroughputModel throughput_;
  /// throughput_.throughput(n) for n in [0, total_cores], precomputed in the
  /// constructor with the model itself (same std::pow, bit-identical) so the
  /// per-tick operating-point math never calls libm. Immutable after
  /// construction, so concurrent reads (oracle threads) stay safe.
  std::vector<double> throughput_by_cores_;
};

}  // namespace dcs::compute
