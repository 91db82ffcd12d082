#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/profile.h"
#include "util/check.h"
#include "util/log.h"

namespace dcs::core {
namespace {

const Power kPowerEps = Power::watts(1e-6);

/// Active-fault severity at or above which an ongoing sprint ends outright
/// (the ladder's kSprintEnded rung); milder faults shed degree instead.
constexpr double kSevereFaultSeverity = 0.5;

/// Release band of the trip-margin watch edge: once low, the margin must
/// recover past watch * this factor before the breaker screen can fire
/// again.
constexpr double kMarginReleaseFactor = 1.25;

}  // namespace

std::string_view to_string(SprintPhase phase) noexcept {
  switch (phase) {
    case SprintPhase::kNormal: return "normal";
    case SprintPhase::kCbOverload: return "cb-overload";
    case SprintPhase::kUpsAssist: return "ups-assist";
    case SprintPhase::kTesCooling: return "tes-cooling";
    case SprintPhase::kShutdown: return "shutdown";
  }
  return "?";
}

std::string_view to_string(DegradationLevel level) noexcept {
  switch (level) {
    case DegradationLevel::kNominal: return "nominal";
    case DegradationLevel::kDerated: return "derated";
    case DegradationLevel::kShedding: return "shedding";
    case DegradationLevel::kSprintEnded: return "sprint-ended";
    case DegradationLevel::kPowerCapFallback: return "power-cap-fallback";
  }
  return "?";
}

SprintingController::SprintingController(const DataCenterConfig& config,
                                         const Deps& deps, Strategy* strategy,
                                         Mode mode)
    : config_(config), deps_(deps), strategy_(strategy), mode_(mode) {
  DCS_REQUIRE(deps_.fleet != nullptr, "controller needs a fleet");
  DCS_REQUIRE(deps_.topology != nullptr, "controller needs a power topology");
  DCS_REQUIRE(deps_.cooling != nullptr, "controller needs a cooling plant");
  DCS_REQUIRE(deps_.room != nullptr, "controller needs a room model");
  DCS_REQUIRE(mode_ != Mode::kControlled || strategy_ != nullptr,
              "controlled mode needs a strategy");
  const std::size_t k = deps_.topology->groups().size();
  DCS_REQUIRE(k == 1 || (mode_ != Mode::kPowerCapped && mode_ != Mode::kDvfsCapped),
              "the capped baselines step one PDU group");
  const auto pdus = static_cast<double>(deps_.topology->pdu_count());
  groups_.resize(k);
  for (std::size_t g = 0; g < k; ++g) {
    groups_[g].count = static_cast<double>(deps_.topology->groups()[g].count);
    groups_[g].weight = groups_[g].count / pdus;
  }
  ops_.resize(k);
  load_.resize(k);
  ups_.resize(k);
  requests_.resize(k);
  grants_.resize(k);
  dc_rated_ = config_.dc_rated();
  pdu_rated_ = config_.pdu_rated();
  fleet_peak_sprint_ = config_.fleet_peak_sprint();

  // Total additional-energy budget EB_tot (Section V-A): stored UPS energy,
  // the chiller electrical energy the TES can displace, and the transient
  // above-rating energy the breakers can carry.
  cb_budget_initial_ = cb_budget_estimate();
  Energy total = deps_.topology->ups_available() + cb_budget_initial_;
  if (deps_.tes != nullptr) {
    // The TES enables additional IT energy roughly 1:1 — every joule of
    // additional server heat beyond the chiller's capacity must come out of
    // the tank once phase 3 starts.
    total += deps_.tes->stored();
  }
  // power_per_degree() and tes_activation_time() are run constants derived
  // from the config; cache them (and the budget they imply) so the per-tick
  // paths (remaining_energy_fraction, should_activate_tes) never recompute.
  power_per_degree_ = power_per_degree();
  budget_total_ds_ = total.j() / power_per_degree_.w();
  budget_total_energy_ = Energy::joules(budget_total_ds_ * power_per_degree_.w());
  if (deps_.tes != nullptr) {
    tes_activation_time_ = config_.tes_activation_time();
  }
}

void SprintingController::set_supply_fraction(const TimeSeries* fraction) {
  if (fraction != nullptr) {
    for (const Sample& s : fraction->samples()) {
      DCS_REQUIRE(s.value >= 0.0 && s.value <= 1.0,
                  "supply fraction " + std::to_string(s.value) +
                      " outside [0, 1]");
    }
  }
  supply_fraction_ = fraction;
}

Power SprintingController::power_per_degree() const {
  const Power normal = config_.fleet_peak_normal();
  const Power sprint = fleet_peak_sprint_;
  const double span =
      deps_.fleet->server().chip().max_sprint_degree() - 1.0;
  DCS_ENSURE(span > 0.0, "chip has no dark cores to sprint with");
  return (sprint - normal) / span;
}

Energy SprintingController::cb_budget_estimate() const {
  // Holding a constant overload o for its full trip time T = C / o^2
  // delivers P_rated * o * T = P_rated * sqrt(C * T) extra joules; we plan
  // for a T of ten minutes (the order of the paper's bursts). The binding
  // level is whichever tier can carry less in aggregate.
  const double c = config_.trip_curve.thermal_coeff_s;
  const double t_plan = Duration::minutes(10).sec();
  const double factor = std::sqrt(c * t_plan);
  const Power pdu_total = pdu_rated_ *
                          static_cast<double>(deps_.topology->pdu_count());
  const Power binding = std::min(dc_rated_, pdu_total);
  return Energy::joules(binding.w() * factor);
}

double SprintingController::remaining_energy_fraction() const {
  Energy remaining = deps_.topology->ups_available();
  if (deps_.tes != nullptr) {
    remaining += deps_.tes->stored();
  }
  // Breaker transient budget shrinks as the hottest element heats up.
  const double max_heat = std::max(deps_.topology->dc_breaker().thermal_state(),
                                   deps_.topology->max_pdu_breaker_heat());
  remaining += cb_budget_initial_ * (1.0 - max_heat);
  const Energy total = budget_total_energy_;
  return total > Energy::zero() ? std::clamp(remaining / total, 0.0, 1.0) : 0.0;
}

SprintContext SprintingController::make_context(double demand,
                                                double energy_fraction) const {
  SprintContext ctx;
  ctx.elapsed_in_burst = burst_elapsed_;
  ctx.demand = demand;
  ctx.max_degree = deps_.fleet->server().chip().max_sprint_degree();
  ctx.max_demand_in_burst = std::max(max_demand_in_burst_, demand);
  ctx.avg_degree = burst_elapsed_ > Duration::zero()
                       ? degree_time_integral_ / burst_elapsed_.sec()
                       : 1.0;
  ctx.remaining_energy_fraction = energy_fraction;
  ctx.period = config_.control_period;
  return ctx;
}

bool SprintingController::should_activate_tes() const {
  if (mode_ != Mode::kControlled || deps_.tes == nullptr) return false;
  if (deps_.tes->empty()) return false;
  // Graceful degradation: while the chiller is derated by a fault, the tank
  // covers the cooling shortfall even outside the phase-3 window, keeping
  // the room below threshold for as long as the charge lasts.
  if (injector_ != nullptr &&
      injector_->state().chiller_capacity_factor < 1.0 - 1e-12) {
    return true;
  }
  return in_burst_ && !sprint_terminated_ &&
         burst_elapsed_ >= tes_activation_time_;
}

Power SprintingController::discharge_limit(Group& group,
                                           const power::Pdu& pdu,
                                           Duration dt) const {
  if (!group.ups_limit) {
    group.ups_limit =
        std::min(pdu.ups().max_discharge(), pdu.ups().available() / dt);
  }
  return *group.ups_limit;
}

bool SprintingController::pdu_tier_ok(Group& group, const power::Pdu& pdu,
                                      Duration dt) const {
  // The breaker may carry up to the governor's bound; the UPS bank covers
  // the rest, limited by inverter power and stored energy. Screen:
  // max_load_for() never returns less than the effective rating of an
  // untripped breaker (the curve's no-trip ratio exceeds 1), so a load at
  // or below rating needs no UPS assist — skip the curve inversion.
  const Power load = group.load;
  group.ups = Power::zero();
  if (load.w() > pdu.breaker().effective_rated().w()) {
    if (!group.pdu_allow) {
      group.pdu_allow = pdu.breaker().max_load_for(config_.cb_reserve);
    }
    const Power pdu_allow = *group.pdu_allow;
    group.ups = load > pdu_allow ? load - pdu_allow : Power::zero();
    if (group.ups > discharge_limit(group, pdu, dt) + kPowerEps) return false;
  }
  return true;
}

std::size_t SprintingController::pdu_tier_cap(std::size_t g, Duration dt) {
  Group& group = groups_[g];
  const power::Pdu& pdu = deps_.topology->groups()[g].pdu;
  const auto ok = [&](std::size_t cores) {
    group.load = deps_.fleet->operate_with_cores(group.measured, cores).per_pdu;
    return pdu_tier_ok(group, pdu, dt);
  };
  std::size_t lo = deps_.fleet->server().chip().params().normal_cores;
  std::size_t hi = group.desired;
  if (ok(hi)) return hi;
  // Monotone in the core count; normal cores stand even if they fail (the
  // shared search then sheds every group to normal).
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (ok(mid) ? lo : hi) = mid;
  }
  return lo;
}

bool SprintingController::check_cores(std::size_t cap, bool tes_active,
                                      Duration dt, Power* tes_relief) {
  const auto& topo = *deps_.topology;
  if (topo.dc_breaker().tripped()) return false;
  // Each group's operating point under the cap, through its PDU tier.
  Power fleet_total = Power::zero();
  Power pdu_grid = Power::zero();  // grid-side PDU flows
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    const power::Pdu& pdu = topo.groups()[g].pdu;
    if (pdu.breaker().tripped()) return false;
    group.load = deps_.fleet
                     ->operate_with_cores(group.measured,
                                          std::min(cap, group.hold))
                     .per_pdu;
    if (!pdu_tier_ok(group, pdu, dt)) return false;
    fleet_total += group.load * group.count;
    pdu_grid += (group.load - group.ups) * group.count;
  }

  // Thermal tier: once phase 3 is due, the additional heat (beyond the
  // chiller's capacity) must fit in the tank for this step; otherwise the
  // room heats toward the threshold and the sprint would terminate.
  const Power excess_heat =
      fleet_total > deps_.cooling->thermal_capacity()
          ? fleet_total - deps_.cooling->thermal_capacity()
          : Power::zero();
  Power tes_rate_left = Power::zero();
  if (tes_active && deps_.tes != nullptr) {
    tes_rate_left =
        std::min(deps_.tes->stored() / dt, deps_.tes->max_discharge_rate());
    if (excess_heat > tes_rate_left + kPowerEps) return false;
    tes_rate_left -= excess_heat;
  }

  // DC tier: grid-side PDU flows plus cooling must fit the substation
  // governor's bound and the utility feed's current capability. In phase 3
  // the TES displaces chiller power first ("reduce the chiller power to
  // decrease the overload of DC-level CBs"); extra UPS discharge relieves
  // whatever remains. Same screen as the PDU tier: when the grid is not
  // limited and the DC load sits at or below the substation rating, the
  // overload branches cannot engage.
  const Power cooling = deps_.cooling->electrical_projection(
      fleet_total, tes_active, Power::zero());
  Power dc_load = pdu_grid + cooling;
  Power relief = Power::zero();
  if (grid_limited_ || dc_load.w() > topo.dc_breaker().effective_rated().w()) {
    if (!dc_allow_) {
      dc_allow_ = topo.dc_breaker().max_load_for(config_.cb_reserve);
      if (grid_limited_) dc_allow_ = std::min(*dc_allow_, grid_cap_);
    }
    const Power dc_allow = *dc_allow_;
    if (dc_load > dc_allow + kPowerEps && tes_active && deps_.tes != nullptr) {
      const Power chiller_now = deps_.cooling->chiller_electrical(
          std::min(fleet_total, deps_.cooling->thermal_capacity()));
      const Power relief_max = std::min(
          chiller_now, tes_rate_left * deps_.cooling->chiller_elec_per_heat());
      relief = std::min(dc_load - dc_allow, relief_max);
      dc_load -= relief;
    }
    if (dc_load > dc_allow + kPowerEps) {
      // The shortfall moves onto the UPS banks, max-min per PDU over each
      // group's headroom: no bank discharges past its limit or its load.
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        Group& group = groups_[g];
        const Power limit = discharge_limit(group, topo.groups()[g].pdu, dt);
        requests_[g] = CbBudgetRequest{
            std::max(group.load - group.ups, Power::zero()),
            std::max(limit + kPowerEps - group.ups, Power::zero()),
            topo.groups()[g].count};
      }
      if (!allocate_cb_budget(dc_load - dc_allow, requests_, grants_)) {
        return false;  // every bank at its limit and still short
      }
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        Group& group = groups_[g];
        group.ups += grants_[g];
        if (group.ups > *group.ups_limit + kPowerEps) return false;
        if (group.ups > group.load) return false;
      }
    }
  }
  if (tes_relief != nullptr) *tes_relief = relief;
  return true;
}

SprintingController::Feasible SprintingController::find_feasible(double bound,
                                                                 Duration dt) {
  const bool tes_active = should_activate_tes();
  dc_allow_.reset();
  const std::size_t normal =
      deps_.fleet->server().chip().params().normal_cores;
  std::size_t top = normal;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    group.ups_limit.reset();
    group.pdu_allow.reset();
    group.desired =
        deps_.fleet->operate(group.measured, std::max(1.0, bound)).active_cores;
    // One group's own PDU tier must not hold back the cap every group
    // shares, so with several groups each is first capped by its own; with
    // one group the shared search below applies that tier itself.
    group.hold = groups_.size() > 1 ? pdu_tier_cap(g, dt) : group.desired;
    top = std::max(top, group.hold);
  }
  const auto keep_ups = [&] {
    for (std::size_t g = 0; g < groups_.size(); ++g) ups_[g] = groups_[g].ups;
  };

  Feasible best{normal, Power::zero(), tes_active};
  // check_cores() is monotone in the cap (power grows with cores), so
  // binary-search the largest feasible cap in [normal, top].
  Power relief = Power::zero();
  if (check_cores(top, tes_active, dt, &relief)) {
    keep_ups();
    return Feasible{top, relief, tes_active};
  }
  std::size_t lo = normal, hi = top;
  // Invariant: lo feasible (rated load always is), hi infeasible.
  if (!check_cores(lo, tes_active, dt, &relief)) {
    // Breakers too hot even for normal load (possible right after heavy
    // overload): shed to normal cores anyway — rated load cannot trip.
    std::fill(ups_.begin(), ups_.end(), Power::zero());
    return best;
  }
  keep_ups();
  best.tes_relief = relief;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (check_cores(mid, tes_active, dt, &relief)) {
      lo = mid;
      best.cap = mid;
      keep_ups();
      best.tes_relief = relief;
    } else {
      hi = mid;
    }
  }
  return best;
}

Power SprintingController::commit_ops(StepResult& result) {
  Power total = Power::zero();
  result.achieved = 0.0;
  result.degree = 0.0;
  result.active_cores = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const compute::Fleet::Operation& op = ops_[g];
    load_[g] = op.per_pdu;
    total += op.per_pdu * groups_[g].count;
    result.achieved += op.achieved * groups_[g].weight;
    result.degree += op.degree * groups_[g].weight;
    result.active_cores = std::max(result.active_cores, op.active_cores);
  }
  result.server_power = total;
  return total;
}

StepResult SprintingController::step(Duration now,
                                     std::span<const double> demands,
                                     Duration dt) {
  DCS_OBS_SCOPE("controller.step");
  DCS_REQUIRE(demands.size() == groups_.size(), "one demand per PDU group");
  DCS_REQUIRE(dt > Duration::zero(), "dt must be positive");
  double demand = 0.0;  // PDU-weighted facility demand
  double peak = 0.0;    // the largest group demand: the burst signal
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    DCS_REQUIRE(demands[g] >= 0.0, "demand must be non-negative");
    groups_[g].demand = demands[g];
    demand += demands[g] * groups_[g].weight;
    peak = std::max(peak, demands[g]);
  }
  StepResult result;
  switch (mode_) {
    case Mode::kControlled:
      result = step_controlled(now, demand, peak, dt);
      break;
    case Mode::kUncontrolled:
      result = step_uncontrolled(demand, dt);
      break;
    case Mode::kNoSprint:
    case Mode::kPowerCapped:
      result = step_capped(demand, dt, mode_ == Mode::kPowerCapped);
      break;
    case Mode::kDvfsCapped:
      result = step_dvfs(demand, dt);
      break;
  }
  if (mode_ != Mode::kControlled) result.measured_demand = peak;
  if (result.tripped && trip_time_.is_infinite()) trip_time_ = now;
  trace_transitions(now, result);
  account(result, dt);
  return result;
}

StepResult SprintingController::step_controlled(Duration now, double demand,
                                                double peak, Duration dt) {
  if (shutdown_) {
    // A fault-induced trip earlier in the run: the data center is dark
    // (mirrors the uncontrolled baseline's post-trip behaviour).
    StepResult result;
    result.demand = demand;
    result.measured_demand = peak;
    result.phase = SprintPhase::kShutdown;
    result.tripped = true;
    result.degradation = DegradationLevel::kPowerCapFallback;
    std::fill(ops_.begin(), ops_.end(), compute::Fleet::Operation{});
    deps_.room->step(Power::zero(), Power::zero(), dt);
    result.room = deps_.room->temperature();
    return result;
  }

  // Utility-feed health: a disturbance immediately ends the sprint
  // (Section IV-A) and brings the backup generator online; the UPS banks
  // bridge whatever the derated feed cannot carry.
  double supply = 1.0;
  if (supply_fraction_ != nullptr) {
    supply = supply_fraction_->at(now, supply_cursor_);
  }
  grid_limited_ = supply < 1.0 - 1e-9;
  if (generator_ != nullptr) {
    if (grid_limited_) generator_->request_start();
    generator_->tick(dt);
  }
  grid_cap_ = dc_rated_ * supply +
              (generator_ != nullptr ? generator_->available() : Power::zero());

  // The controller plans on *measured* values; the plant commits the true
  // ones. Without an injector the two are the same doubles, bit for bit.
  // The demand sensor reads the largest group demand; the other groups'
  // readings carry the same relative error.
  double measured = peak;
  double measured_rise_c = deps_.room->rise().c();
  double energy_fraction = remaining_energy_fraction();
  if (injector_ != nullptr) {
    measured = injector_->measure(faults::SensorChannel::kDemand, now, peak);
    measured_rise_c = injector_->measure(faults::SensorChannel::kTemperature,
                                         now, measured_rise_c);
    energy_fraction = std::clamp(
        injector_->measure(faults::SensorChannel::kPower, now, energy_fraction),
        0.0, 1.0);
  }
  for (Group& group : groups_) {
    group.measured = group.demand;
    if (measured != peak) {
      group.measured =
          group.demand == peak ? measured : group.demand * (measured / peak);
    }
  }
  const bool active = burst_active(measured);
  if (active && !in_burst_) {
    in_burst_ = true;
    if (strategy_ != nullptr) strategy_->on_burst_start();
  }
  if (strategy_ != nullptr) {
    strategy_->observe(make_context(measured, energy_fraction));
  }
  if (!active && in_burst_) {
    in_burst_ = false;
    sprint_terminated_ = false;  // a future burst starts a fresh sprint
  }

  if (grid_limited_ && in_burst_) sprint_terminated_ = true;

  // Degradation ladder (Section IV-A: "lower the sprinting degree or end
  // sprinting"): any active fault re-solves feasibility on the degraded
  // component set (kDerated); severe faults end an ongoing sprint outright.
  DegradationLevel level = DegradationLevel::kNominal;
  double severity = 0.0;
  if (injector_ != nullptr) {
    const faults::FaultInjector::State& fs = injector_->state();
    severity = fs.severity;
    if (fs.active_count > 0) level = DegradationLevel::kDerated;
    if (in_burst_ && severity >= kSevereFaultSeverity) {
      sprint_terminated_ = true;
    }
  }

  // Pre-emptive thermal cut-off: if even one more control period at the
  // worst-case heat gap could cross the room threshold, end the sprint now
  // rather than let the peak overshoot by a tick. Projects from the
  // *measured* rise — a faulted temperature sensor can blind this check;
  // the watchdog still sees the true room state.
  if (active && !sprint_terminated_) {
    const Power max_gap =
        fleet_peak_sprint_ - deps_.cooling->thermal_capacity();
    if (deps_.room->time_to_threshold_from(Temperature::celsius(measured_rise_c),
                                           max_gap) <= dt) {
      sprint_terminated_ = true;
    }
  }

  double bound = 1.0;
  if (active && !sprint_terminated_) {
    bound = std::clamp(strategy_->upper_bound(make_context(measured,
                                                           energy_fraction)),
                       1.0, deps_.fleet->server().chip().max_sprint_degree());
    // Ladder: shed degree in proportion to the active faults' aggregate
    // severity — milder than ending the sprint, free at severity zero.
    if (injector_ != nullptr && severity > 0.0) {
      const double shed = 1.0 + (bound - 1.0) * (1.0 - severity);
      if (shed < bound - kDegreeEps) {
        level = std::max(level, DegradationLevel::kShedding);
      }
      bound = shed;
    }
  }

  StepResult result;
  result.demand = demand;
  result.measured_demand = measured;
  result.upper_bound = bound;
  result.supply_fraction = supply;
  if (injector_ != nullptr) {
    result.faults_active = injector_->state().active_count;
  }

  // Ladder last resort: when safety margins are critically tight the
  // controller abandons sprinting altogether and steps like the
  // conventional power-capped baseline until the margins recover.
  if (injector_ != nullptr) {
    fallback_ = should_fall_back();
    if (fallback_) {
      if (in_burst_) sprint_terminated_ = true;
      StepResult capped = step_capped(demand, dt, /*allow_extra_cores=*/false);
      capped.measured_demand = measured;
      capped.supply_fraction = supply;
      capped.faults_active = result.faults_active;
      capped.degradation = DegradationLevel::kPowerCapFallback;
      if (active) {
        burst_elapsed_ += dt;
        max_demand_in_burst_ = std::max(max_demand_in_burst_, measured);
        degree_time_integral_ += capped.degree * dt.sec();
      }
      return capped;
    }
  }

  // No ESD recharging while the feed is disturbed.
  const bool recharging = !grid_limited_ && !active &&
                          measured <= config_.recharge_demand_threshold;

  const Feasible f = find_feasible(bound, dt);
  // Commit with the chosen cap against the *true* demand: under a
  // demand-sensor fault the plan and reality can differ, which is exactly
  // the hazard the ladder and the watchdog guard against. The hottest
  // group drives the chip-level and exhaustion rules below.
  bool shed = false;
  double peak_degree = 1.0;
  Power peak_server = Power::zero();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = groups_[g];
    const std::size_t cores = std::min(f.cap, group.hold);
    shed = shed || cores < group.desired;
    ops_[g] = deps_.fleet->operate_with_cores(group.demand, cores);
    peak_degree = std::max(peak_degree, ops_[g].degree);
    peak_server = std::max(peak_server, ops_[g].per_server);
  }
  if (injector_ != nullptr && injector_->state().active_count > 0 && shed) {
    level = std::max(level, DegradationLevel::kShedding);
  }
  const Power fleet_total = commit_ops(result);

  thermal::CoolingStep cooling{};
  power::Flows flows{};
  if (recharging) {
    // Idle headroom recharges the ESDs: UPS banks first, then the TES, all
    // while every breaker stays at or below its rating. Every PDU may take
    // an equal share of the DC room.
    const double n = static_cast<double>(deps_.topology->pdu_count());
    const Power nominal_cooling = deps_.cooling->electrical_projection(
        fleet_total, false, Power::zero());
    const Power dc_used = fleet_total + nominal_cooling;
    Power dc_room =
        dc_rated_ > dc_used ? dc_rated_ - dc_used : Power::zero();
    const Power share = dc_room / n;
    Power recharged = Power::zero();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const Power pdu_room =
          pdu_rated_ > load_[g] ? pdu_rated_ - load_[g] : Power::zero();
      ups_[g] = std::min(pdu_room, share);
      recharged += ups_[g] * groups_[g].count;
    }
    // The recharge total can round one ulp above dc_room when every PDU
    // took the full share (seen at the paper's n = 909); clamp so the
    // leftover room — and the TES rate derived from it — cannot go
    // negative.
    dc_room = std::max(dc_room - recharged, Power::zero());
    Power tes_rate = Power::zero();
    if (deps_.tes != nullptr) {
      // Convert the remaining electrical room into a thermal recharge rate.
      tes_rate = dc_room / deps_.cooling->chiller_elec_per_heat();
    }
    cooling = deps_.cooling->recharge_tes_step(fleet_total, tes_rate, dt);
    flows = deps_.topology->recharge(load_, ups_, cooling.electrical, dt);
  } else {
    cooling = deps_.cooling->step(fleet_total, f.tes_active, f.tes_relief, dt);
    flows = deps_.topology->step(load_, ups_, cooling.electrical, dt);
  }
  deps_.room->step(fleet_total, cooling.heat_absorbed, dt);
  result.cooling_power = cooling.electrical;
  result.ups_power = flows.ups_total;
  result.dc_load = flows.dc_load;
  result.room = deps_.room->temperature();

  if (flows.dc_tripped || flows.any_pdu_tripped) {
    // Without injected faults this is unreachable — keep the hard contract.
    DCS_ENSURE(injector_ != nullptr,
               "controlled sprinting must never trip a breaker");
    // Under faults (e.g. a nuisance-trip bias landing mid-overload) a trip
    // is a survivable-but-terminal event for the run: report it as a
    // structured shutdown instead of aborting the simulation.
    shutdown_ = true;
    sprint_terminated_ = true;
    result.achieved = 0.0;
    result.tripped = true;
    result.phase = SprintPhase::kShutdown;
    result.degradation = DegradationLevel::kPowerCapFallback;
    return result;
  }

  // Chip-level PCM: melted by chip power above the sustainable level; an
  // exhausted buffer means chip sprinting itself is over ("If the
  // chip-level sprinting can be no longer sustained, we also finish Data
  // Center Sprinting", Section IV).
  if (deps_.pcm != nullptr) {
    const Power chip = peak_server - deps_.fleet->server().non_cpu();
    deps_.pcm->step(chip, dt);
    if (deps_.pcm->exhausted() && peak_degree > 1.0 + kDegreeEps) {
      sprint_terminated_ = true;
    }
  }

  // Terminal rules (Sections IV-A, V-C): overheating, the TES running dry
  // while carrying the cooling load, or the stored energy being exhausted
  // altogether, end the sprint — the additional cores go back to inactive
  // until the burst is over.
  if (deps_.room->over_threshold()) sprint_terminated_ = true;
  if (in_burst_ && f.tes_active && deps_.tes != nullptr && deps_.tes->empty()) {
    sprint_terminated_ = true;
  }
  if (active && peak_degree > 1.0 + kDegreeEps) {
    // "The additional power or cooling can no longer be provided": the UPS
    // running dry ends phase 2, the TES running dry ends phase 3 — either
    // way the sprint is over (Section IV-A).
    constexpr double kExhausted = 0.02;
    const bool ups_out =
        deps_.topology->ups_available() <=
        deps_.topology->ups_capacity() * kExhausted;
    const bool tes_out =
        f.tes_active && deps_.tes != nullptr &&
        deps_.tes->stored() <= deps_.tes->capacity() * kExhausted;
    if (ups_out || tes_out) sprint_terminated_ = true;
  }

  // Burst bookkeeping for the strategies.
  if (active) {
    burst_elapsed_ += dt;
    max_demand_in_burst_ = std::max(max_demand_in_burst_, measured);
    degree_time_integral_ += peak_degree * dt.sec();
  }

  // Ladder: a sprint ended by a fault or feed disturbance (not by the
  // paper's ordinary energy/thermal exhaustion rules) is kSprintEnded.
  if (in_burst_ && sprint_terminated_ &&
      (grid_limited_ ||
       (injector_ != nullptr && injector_->state().active_count > 0))) {
    level = std::max(level, DegradationLevel::kSprintEnded);
  }
  result.degradation = level;

  result.tes_heat = cooling.tes_heat;
  result.tes_relief = cooling.relief;
  if (peak_degree <= 1.0 + kDegreeEps) {
    result.phase = SprintPhase::kNormal;
  } else if (cooling.tes_active) {
    result.phase = SprintPhase::kTesCooling;
  } else if (flows.ups_total > kPowerEps) {
    result.phase = SprintPhase::kUpsAssist;
  } else {
    result.phase = SprintPhase::kCbOverload;
  }
  return result;
}

StepResult SprintingController::step_uncontrolled(double demand, Duration dt) {
  StepResult result;
  result.demand = demand;
  if (shutdown_) {
    // Breaker tripped earlier: the data center is dark.
    result.phase = SprintPhase::kShutdown;
    result.tripped = true;
    result.room = deps_.room->temperature();
    std::fill(ops_.begin(), ops_.end(), compute::Fleet::Operation{});
    deps_.room->step(Power::zero(), Power::zero(), dt);
    return result;
  }
  // Chip-level sprinting with no data-center-level coordination: every chip
  // turns on whatever the demand asks for.
  const double max_degree = deps_.fleet->server().chip().max_sprint_degree();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    ops_[g] = deps_.fleet->operate(groups_[g].demand, max_degree);
  }
  const Power fleet_total = commit_ops(result);
  std::fill(ups_.begin(), ups_.end(), Power::zero());
  const auto cooling =
      deps_.cooling->step(fleet_total, false, Power::zero(), dt);
  const auto flows =
      deps_.topology->step(load_, ups_, cooling.electrical, dt);
  deps_.room->step(fleet_total, cooling.heat_absorbed, dt);

  result.upper_bound = max_degree;
  result.cooling_power = cooling.electrical;
  result.dc_load = flows.dc_load;
  result.room = deps_.room->temperature();
  result.phase = result.degree > 1.0 + kDegreeEps ? SprintPhase::kCbOverload
                                                  : SprintPhase::kNormal;
  if (flows.dc_tripped || flows.any_pdu_tripped) {
    shutdown_ = true;
    result.tripped = true;
    result.achieved = 0.0;  // the trip kills the service within this step
    result.phase = SprintPhase::kShutdown;
  }
  return result;
}

StepResult SprintingController::step_capped(double demand, Duration dt,
                                            bool allow_extra_cores) {
  StepResult result;
  result.demand = demand;
  const std::size_t normal = deps_.fleet->server().chip().params().normal_cores;
  std::size_t cores = normal;
  if (allow_extra_cores) {
    // Conventional power capping (one PDU group): activate extra cores only
    // while every rating is respected — no overload, no stored energy. The
    // *effective* ratings equal the nameplate ones unless a fault derated a
    // breaker.
    const std::size_t total = deps_.fleet->server().chip().params().total_cores;
    const double max_degree = deps_.fleet->server().chip().max_sprint_degree();
    const std::size_t desired =
        deps_.fleet->operate(demand, max_degree).active_cores;
    const Power pdu_limit =
        deps_.topology->groups().front().pdu.breaker().effective_rated();
    const Power dc_limit = deps_.topology->dc_breaker().effective_rated();
    for (std::size_t n = desired; n >= normal; --n) {
      const auto op = deps_.fleet->operate_with_cores(demand, n);
      const Power cooling = deps_.cooling->electrical_projection(
          op.fleet_total, false, Power::zero());
      const Power dc_load =
          op.per_pdu * static_cast<double>(deps_.topology->pdu_count()) + cooling;
      if (op.per_pdu <= pdu_limit && dc_load <= dc_limit) {
        cores = n;
        break;
      }
      if (n == normal) break;
    }
    DCS_ENSURE(cores <= total, "core search overflow");
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    ops_[g] = deps_.fleet->operate_with_cores(groups_[g].demand, cores);
  }
  const Power fleet_total = commit_ops(result);
  std::fill(ups_.begin(), ups_.end(), Power::zero());
  const auto cooling =
      deps_.cooling->step(fleet_total, false, Power::zero(), dt);
  const auto flows =
      deps_.topology->step(load_, ups_, cooling.electrical, dt);
  deps_.room->step(fleet_total, cooling.heat_absorbed, dt);
  result.upper_bound = result.degree;
  result.cooling_power = cooling.electrical;
  result.dc_load = flows.dc_load;
  result.room = deps_.room->temperature();
  result.phase = result.degree > 1.0 + kDegreeEps ? SprintPhase::kCbOverload
                                                  : SprintPhase::kNormal;
  return result;
}

StepResult SprintingController::step_dvfs(double demand, Duration dt) {
  // Conventional DVFS power capping: the normal cores overclock as far as
  // every rating allows — no dark cores, no overload, no stored energy.
  StepResult result;
  result.demand = demand;
  const compute::Chip& chip = deps_.fleet->server().chip();
  const std::size_t n0 = chip.params().normal_cores;
  const double n_pdus = static_cast<double>(deps_.topology->pdu_count());
  const auto servers = static_cast<double>(
      deps_.fleet->params().servers_per_pdu);

  // Server power at frequency multiplier f serving `demand`:
  // utilization u = min(1, demand / f); dynamic power scales as f^3.
  const auto server_power = [&](double f) {
    const double u = std::min(1.0, demand / f);
    return deps_.fleet->server().non_cpu() + chip.params().base +
           chip.params().per_core *
               (static_cast<double>(n0) * u * dvfs_.power_multiplier(f));
  };
  const auto fits = [&](double f) {
    const Power per_pdu = server_power(f) * servers;
    if (per_pdu > pdu_rated_) return false;
    const Power fleet_power = per_pdu * n_pdus;
    const Power cooling = deps_.cooling->electrical_projection(
        fleet_power, false, Power::zero());
    return fleet_power + cooling <= dc_rated_;
  };

  double f = 1.0;
  if (demand > 1.0 && fits(1.0)) {
    double lo = 1.0, hi = dvfs_.params().max_multiplier;
    if (fits(hi)) {
      f = hi;
    } else {
      for (int iter = 0; iter < 40; ++iter) {
        const double mid = 0.5 * (lo + hi);
        (fits(mid) ? lo : hi) = mid;
      }
      f = lo;
    }
  }

  const Power per_server = server_power(f);
  const auto cooling = deps_.cooling->step(per_server * servers * n_pdus,
                                           false, Power::zero(), dt);
  load_.front() = per_server * servers;
  ups_.front() = Power::zero();
  const auto flows =
      deps_.topology->step(load_, ups_, cooling.electrical, dt);
  deps_.room->step(per_server * servers * n_pdus, cooling.heat_absorbed, dt);

  result.achieved = std::min(demand, dvfs_.performance(f));
  result.degree = f;  // frequency multiplier reported as the "degree"
  result.active_cores = n0;
  result.upper_bound = dvfs_.params().max_multiplier;
  result.server_power = per_server * servers * n_pdus;
  result.cooling_power = cooling.electrical;
  result.dc_load = flows.dc_load;
  result.room = deps_.room->temperature();
  result.phase = f > 1.0 + kDegreeEps ? SprintPhase::kCbOverload
                                      : SprintPhase::kNormal;
  return result;
}

bool SprintingController::should_fall_back() const {
  const faults::FaultInjector::State& fs = injector_->state();
  const double room_frac =
      deps_.room->rise().c() / deps_.room->params().threshold_rise.c();
  // A severe chiller loss with no usable thermal storage left means every
  // extra watt shortens the time to the room threshold: cap now.
  const bool tes_dry = deps_.tes == nullptr || deps_.tes->empty() ||
                       fs.tes_discharge_factor <= 0.0;
  const bool chiller_critical = fs.chiller_capacity_factor <= 0.5 && tes_dry;
  if (!fallback_) {
    return room_frac >= 0.90 || chiller_critical;
  }
  // Hysteresis: leave the fallback only once the room has genuinely
  // recovered, so the controller does not oscillate across the boundary.
  return room_frac >= 0.60 || chiller_critical;
}

void SprintingController::trace_transitions(Duration now,
                                            const StepResult& result) {
  const DegradationLevel prev_level = prev_degradation_;
  if (result.degradation != prev_level) {
    // Ladder moves are the reactive safety actions of Section IV-A: rare,
    // and worth a log line even without a decision log attached.
    DCS_LOG_INFO << "degradation " << to_string(prev_level) << " -> "
                 << to_string(result.degradation) << " at t=" << now.sec()
                 << "s (degree " << result.degree << ")";
  }
  prev_degradation_ = result.degradation;

  const bool sprinting = result.degree > 1.0 + kDegreeEps;
  if (tracer_ == nullptr && decisions_ == nullptr) {
    prev_phase_ = result.phase;
    prev_in_burst_ = in_burst_;
    prev_sprinting_ = sprinting;
    prev_grid_limited_ = grid_limited_;
    return;
  }

  // Trigger decisions first: a consequence emitted later this tick (sprint
  // onset, a ladder move) cites the latest trigger as its cause, so causes
  // must hit the stream before their effects.
  if (decisions_ != nullptr && grid_limited_ && !prev_grid_limited_) {
    decisions_->emit(obs::DecisionRule::kSupplyDisturbance,
                     {{"supply", result.supply_fraction}}, {{"supply", 1.0}});
  }
  prev_grid_limited_ = grid_limited_;

  if (decisions_ != nullptr && in_burst_ != prev_in_burst_) {
    decisions_->emit(in_burst_ ? obs::DecisionRule::kBurstStart
                               : obs::DecisionRule::kBurstEnd,
                     {{"demand", result.measured_demand}}, {{"demand", 1.0}});
  }
  prev_in_burst_ = in_burst_;

  if (tracer_ != nullptr && result.phase != prev_phase_) {
    tracer_->instant(
        now, "controller", "phase",
        {obs::arg("from", to_string(prev_phase_)),
         obs::arg("to", to_string(result.phase)),
         obs::arg("degree", result.degree),
         obs::arg("cores", static_cast<double>(result.active_cores))});
  }
  prev_phase_ = result.phase;

  const bool dc_overload = result.dc_load > dc_rated_ + kPowerEps;
  if (dc_overload != prev_dc_overload_) {
    if (tracer_ != nullptr) {
      tracer_->instant(now, "controller",
                       dc_overload ? "dc-overload-enter" : "dc-overload-exit",
                       {obs::arg("dc_load_w", result.dc_load.w()),
                        obs::arg("rated_w", dc_rated_.w())});
    }
    prev_dc_overload_ = dc_overload;
  }

  // Remaining-trip-time margin on the substation breaker: crossing below
  // twice the governor's reserve is the early warning that the shrinking
  // overload bound is about to bind (the margin itself is the recorded
  // cb_trip_margin_s channel). Two guards keep this off the hot path: the
  // inline can_trip_at screen skips the curve lookup while the load is
  // pinned at or below the no-trip boundary (the common case), and a
  // Schmitt-trigger release band stops the edge from chattering — the
  // governor holds the load right where the margin hovers at the watch
  // threshold, which would otherwise screen the breaker every other tick.
  if (decisions_ != nullptr) {
    const power::CircuitBreaker& dc_breaker = deps_.topology->dc_breaker();
    const Duration watch = config_.cb_reserve * 2.0;
    bool margin_low = false;
    if (dc_breaker.can_trip_at(result.dc_load)) {
      margin_low = dc_breaker.trips_within(
          result.dc_load,
          prev_margin_low_ ? watch * kMarginReleaseFactor : watch);
    }
    if (margin_low && !prev_margin_low_) {
      const Duration margin = dc_breaker.time_to_trip_at(result.dc_load);
      const double margin_s = margin.is_infinite() ? -1.0 : margin.sec();
      decisions_->emit(obs::DecisionRule::kBreakerScreen,
                       {{"margin_s", margin_s}}, {{"watch_s", watch.sec()}});
    }
    prev_margin_low_ = margin_low;
  }

  if (decisions_ != nullptr && sprinting != prev_sprinting_) {
    if (sprinting) {
      decisions_->emit(obs::DecisionRule::kSprintOnset,
                       {{"degree", result.degree},
                        {"bound", result.upper_bound},
                        {"demand", result.measured_demand},
                        {"energy_fraction", remaining_energy_fraction()}},
                       {{"degree", 1.0}},
                       {obs::arg("phase", to_string(result.phase))});
    } else {
      decisions_->emit(obs::DecisionRule::kSprintEnd,
                       {{"degree", result.degree},
                        {"demand", result.measured_demand}},
                       {{"degree", 1.0}},
                       {obs::arg("terminated", sprint_terminated_)});
    }
  }
  prev_sprinting_ = sprinting;

  if (decisions_ != nullptr && result.degradation != prev_level) {
    obs::DecisionRule rule = obs::DecisionRule::kLadderRecovered;
    if (result.degradation > prev_level) {
      switch (result.degradation) {
        case DegradationLevel::kDerated:
          rule = obs::DecisionRule::kLadderDerate;
          break;
        case DegradationLevel::kShedding:
          rule = obs::DecisionRule::kLadderShed;
          break;
        case DegradationLevel::kSprintEnded:
          rule = obs::DecisionRule::kLadderSprintEnded;
          break;
        default:
          rule = obs::DecisionRule::kLadderPowerCap;
          break;
      }
    }
    const double severity =
        injector_ != nullptr ? injector_->state().severity : 0.0;
    decisions_->emit(
        rule,
        {{"severity", severity},
         {"faults_active", static_cast<double>(result.faults_active)},
         {"degree", result.degree}},
        {{"severe_severity", kSevereFaultSeverity}},
        {obs::arg("from", to_string(prev_level)),
         obs::arg("to", to_string(result.degradation))});
  }

  const bool ups_active = result.ups_power > kPowerEps;
  if (ups_active != prev_ups_active_) {
    if (tracer_ != nullptr) {
      tracer_->instant(now, "controller",
                       ups_active ? "ups-activate" : "ups-idle",
                       {obs::arg("ups_w", result.ups_power.w())});
    }
    prev_ups_active_ = ups_active;
  }

  const bool tes_active =
      result.tes_heat > kPowerEps || result.tes_relief > kPowerEps;
  if (tes_active != prev_tes_active_) {
    if (tracer_ != nullptr) {
      tracer_->instant(now, "controller",
                       tes_active ? "tes-activate" : "tes-idle",
                       {obs::arg("tes_heat_w", result.tes_heat.w()),
                        obs::arg("tes_relief_w", result.tes_relief.w())});
    }
    prev_tes_active_ = tes_active;
  }
}

void SprintingController::account(const StepResult& result, Duration dt) {
  max_degradation_ = std::max(max_degradation_, result.degradation);
  degradation_time_[static_cast<std::size_t>(result.degradation)] += dt;
  ups_energy_ += result.ups_power * dt;
  if (result.degree > 1.0 + kDegreeEps) sprint_time_ += dt;
  phase_time_[static_cast<std::size_t>(result.phase)] += dt;
  tes_saved_ += result.tes_relief * dt;
  const Power pdu_rated_total =
      pdu_rated_ * static_cast<double>(deps_.topology->pdu_count());
  const Power pdu_grid = result.dc_load - result.cooling_power;
  if (pdu_grid > pdu_rated_total) {
    pdu_overload_ += (pdu_grid - pdu_rated_total) * dt;
  }
  if (result.dc_load > dc_rated_) {
    dc_overload_ += (result.dc_load - dc_rated_) * dt;
  }
}

}  // namespace dcs::core
