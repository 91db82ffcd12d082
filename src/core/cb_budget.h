// Parent/child circuit-breaker budget coordination (paper Section V-B):
// "if the power overload of a parent CB has already reached its upper
// bound, then a power increase on any of its child CBs demands a power
// decrease on some other child CBs, in order to keep their sum unchanged.
// Therefore, we never trip a CB at the substation level by overloading the
// CBs at the PDU level."
//
// allocate_cb_budget() grants each child the most it asked for, subject to
// its own bound and to the parent's aggregate bound, using max-min fairness
// (a water level) so no child is starved in favour of a hungrier sibling.
// A child stands for `count` identical PDUs (one weighted group of the
// power topology) and the water level is per PDU, so splitting a group in
// two never changes what its PDUs receive. The controller spreads the
// DC-tier shortfall over the groups' UPS headroom with it.
#pragma once

#include <cstddef>
#include <span>

#include "util/units.h"

namespace dcs::core {

struct CbBudgetRequest {
  Power demand;           ///< power each of the child's PDUs wants
  Power child_allow;      ///< each PDU's own bound
  std::size_t count = 1;  ///< PDUs the child stands for
};

/// Writes each child's per-PDU grant into `grants` (one per child).
/// Invariants (verified by tests):
///  * grant_i <= min(demand_i, child_allow_i)
///  * sum(grant_i * count_i) <= parent_allow
///  * max-min fair per PDU: a child below the water level receives its
///    full demand.
/// Returns true when the parent binds (some child is held below its want),
/// false when every child receives its full want.
bool allocate_cb_budget(Power parent_allow,
                        std::span<const CbBudgetRequest> children,
                        std::span<Power> grants);

}  // namespace dcs::core
