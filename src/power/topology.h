// Two-level data-center power topology: an on-site substation breaker
// (DC level) feeding identical PDU groups, with the cooling plant hanging
// off the DC level (paper Fig. 4).
//
// State layout: the PDUs are kept as weighted groups. A group is one Pdu —
// the breaker and UPS-bank state every member shares — plus the number of
// PDUs it stands for, and every fleet total is the sum over groups of
// state x count. The paper's homogeneous fleet is a single group, so a
// 909-PDU plant costs what a 2-PDU one does to build and to step. Zonal
// runs use one group per zone; tests that skew individual PDUs use groups
// of one.
//
// Scale: the per-PDU state is independent of the group sizes, and the
// totals are products, so normalized results agree across PDU counts to
// within floating-point rounding of those products (~1e-13 relative).
// They are not bit-identical across counts.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "power/circuit_breaker.h"
#include "power/pdu.h"
#include "util/units.h"

namespace dcs::power {

/// The power flows of one control step.
struct Flows {
  Power dc_load;            ///< load on the substation (DC-level) breaker
  Power pdu_grid_total;     ///< total grid power into PDUs
  Power ups_total;          ///< total UPS discharge across PDUs
  Power cooling;            ///< cooling plant power at the DC level
  bool dc_tripped = false;  ///< substation breaker tripped this step or earlier
  bool any_pdu_tripped = false;
};

class PowerTopology {
 public:
  struct Params {
    std::size_t pdu_count = 909;
    /// PDUs per group, in order; they must sum to `pdu_count`. Empty means
    /// one group of `pdu_count` PDUs (the uniform fleet).
    std::vector<std::size_t> group_sizes;
    Pdu::Params pdu;
    CircuitBreaker::Params dc_breaker;
  };

  /// `count` identical PDUs, all in the state of `pdu`.
  struct Group {
    Pdu pdu;
    std::size_t count;
  };

  explicit PowerTopology(const Params& params);

  /// Advances one step with one per-PDU server power and UPS request per
  /// group. `cooling_power` is applied at the DC level only.
  Flows step(std::span<const Power> server_power,
             std::span<const Power> ups_request, Power cooling_power,
             Duration dt);

  /// Recharge variant of step: each group's banks absorb up to their
  /// per-PDU `recharge` from the grid.
  Flows recharge(std::span<const Power> server_power,
                 std::span<const Power> recharge, Power cooling_power,
                 Duration dt);

  [[nodiscard]] CircuitBreaker& dc_breaker() noexcept { return dc_breaker_; }
  [[nodiscard]] const CircuitBreaker& dc_breaker() const noexcept { return dc_breaker_; }

  [[nodiscard]] std::vector<Group>& groups() noexcept { return groups_; }
  [[nodiscard]] const std::vector<Group>& groups() const noexcept { return groups_; }

  [[nodiscard]] std::size_t pdu_count() const noexcept { return pdu_count_; }

  /// Total UPS energy still available across all PDU banks.
  [[nodiscard]] Energy ups_available() const;
  /// Total UPS energy capacity across all PDU banks.
  [[nodiscard]] Energy ups_capacity() const;
  /// Largest trip fraction across the PDU-level breakers (not the DC one).
  [[nodiscard]] double max_pdu_breaker_heat() const;

  /// Applies fault-injection factors to every PDU breaker and UPS bank
  /// (faults::FaultInjector pushes the merged fault state here each tick).
  void set_fault_all(double breaker_rating_factor, double breaker_trip_bias,
                     double ups_availability, double ups_capacity_factor);

 private:
  Flows finish_step(Power cooling_power, Duration dt);

  std::vector<Group> groups_;
  std::size_t pdu_count_;
  CircuitBreaker dc_breaker_;
};

}  // namespace dcs::power
