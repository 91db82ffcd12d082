#include "core/cb_budget.h"

#include <algorithm>

#include "util/check.h"

namespace dcs::core {

bool allocate_cb_budget(Power parent_allow,
                        std::span<const CbBudgetRequest> children,
                        std::span<Power> grants) {
  DCS_REQUIRE(parent_allow >= Power::zero(), "parent bound must be non-negative");
  DCS_REQUIRE(grants.size() == children.size(), "one grant per child");
  const auto want = [](const CbBudgetRequest& c) {
    return std::min(c.demand, c.child_allow);
  };

  // Raise the per-PDU water level until a pass fills no more children:
  // each pass fills every child whose want is at or below the level and
  // shares what is left of the parent equally among the PDUs still open.
  // The level never falls, so the open set only shrinks and this takes at
  // most one pass per child.
  Power level = Power::zero();
  double was_open = -1.0;
  bool binds = true;
  for (;;) {
    Power filled = Power::zero();
    double open = 0.0;
    for (const CbBudgetRequest& c : children) {
      DCS_REQUIRE(c.demand >= Power::zero() && c.child_allow >= Power::zero(),
                  "demand and child bound must be non-negative");
      const auto n = static_cast<double>(c.count);
      if (want(c) <= level) {
        filled += want(c) * n;
      } else {
        open += n;
      }
    }
    if (open == was_open) break;  // the level filled no one new: it binds
    if (open == 0.0) {            // every child fits under the level
      binds = false;
      break;
    }
    level = std::max(level, (parent_allow - filled) / open);
    was_open = open;
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    grants[i] = binds ? std::min(want(children[i]), level) : want(children[i]);
  }
  return binds;
}

}  // namespace dcs::core
