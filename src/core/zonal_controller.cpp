#include "core/zonal_controller.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace dcs::core {
namespace {
const Power kPowerEps = Power::watts(1e-6);

/// Cap for the recorded zone<k>/cb_trip_margin_s channels, matching the
/// facility-wide channel in datacenter.cpp: an infinite time-to-trip
/// records as one hour.
constexpr double kTripMarginCapSec = 3600.0;

/// The fleet's topology with one PDU group per zone.
power::PowerTopology::Params zoned_params(const DataCenterConfig& config,
                                          const std::vector<ZoneSpec>& zones) {
  power::PowerTopology::Params params = config.topology_params();
  for (const ZoneSpec& spec : zones) params.group_sizes.push_back(spec.pdu_count);
  return params;
}
}  // namespace

ZonalController::ZonalController(const DataCenterConfig& config,
                                 std::vector<ZoneSpec> zones)
    : config_(config),
      fleet_(config.fleet),
      // The topology rejects zones that do not tile the fleet exactly.
      topology_(zoned_params(config, zones)),
      tes_(config.has_tes
               ? std::make_unique<thermal::TesTank>("dc/tes", config.tes_params())
               : nullptr),
      cooling_(config.cooling_params(tes_.get())),
      room_(config.room_params()) {
  config_.validate();
  DCS_REQUIRE(!zones.empty(), "need at least one zone");
  if (tes_ != nullptr) tes_activation_time_ = config_.tes_activation_time();
  for (const ZoneSpec& spec : zones) {
    DCS_REQUIRE(spec.demand != nullptr && !spec.demand->empty(),
                "zone needs a demand trace");
    zones_.push_back(ZoneRuntime{spec});
  }
}

std::size_t ZonalController::shed_to_grant(double demand, Power grant,
                                           Power ups_max,
                                           const power::Pdu& zone_pdu) const {
  const compute::Chip& chip = fleet_.server().chip();
  const std::size_t normal = chip.params().normal_cores;
  const double max_degree = chip.max_sprint_degree();
  const std::size_t desired = fleet_.operate(demand, max_degree).active_cores;
  const Power pdu_allow = zone_pdu.breaker().max_load_for(config_.cb_reserve);
  for (std::size_t cores = desired; cores > normal; --cores) {
    const auto op = fleet_.operate_with_cores(demand, cores);
    const Power over =
        op.per_pdu > pdu_allow ? op.per_pdu - pdu_allow : Power::zero();
    const Power ups_use = std::min(over, ups_max);
    const Power grid = op.per_pdu - ups_use;
    if (grid <= pdu_allow + kPowerEps && grid <= grant + kPowerEps) {
      return cores;
    }
  }
  return normal;
}

ZonalStepResult ZonalController::step(Duration now, Duration dt) {
  const compute::Chip& chip = fleet_.server().chip();
  const double max_degree = chip.max_sprint_degree();

  // Facility-wide burst clock drives the TES activation rule.
  bool any_burst = false;
  std::vector<double> demand(zones_.size());
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    demand[z] = zones_[z].spec.demand->at(now);
    any_burst = any_burst || demand[z] > 1.0;
  }
  if (any_burst) {
    first_burst_elapsed_ += dt;
    any_burst_seen_ = true;
  }
  const bool tes_active = tes_ != nullptr && !tes_->empty() && any_burst &&
                          first_burst_elapsed_ >= tes_activation_time_;

  // Desired operating point per zone (greedy within the zone).
  struct ZoneWant {
    compute::Fleet::Operation op;
    Power ups_max;        // per PDU
    Power pdu_allow;      // per PDU
  };
  std::vector<ZoneWant> wants(zones_.size());
  Power fleet_power = Power::zero();
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    const ZoneRuntime& rt = zones_[z];
    const power::Pdu& rep = topology_.groups()[z].pdu;
    ZoneWant w;
    w.op = fleet_.operate(demand[z], max_degree);
    w.ups_max = std::min(rep.ups().max_discharge(), rep.ups().available() / dt);
    w.pdu_allow = rep.breaker().max_load_for(config_.cb_reserve);
    wants[z] = w;
    fleet_power += w.op.per_pdu * static_cast<double>(rt.spec.pdu_count);
  }

  // Substation budget after cooling, shared max-min fairly (Section V-B).
  Power cooling_elec =
      cooling_.electrical_projection(fleet_power, tes_active, Power::zero());
  const Power dc_allow =
      topology_.dc_breaker().max_load_for(config_.cb_reserve);
  Power parent = dc_allow > cooling_elec ? dc_allow - cooling_elec : Power::zero();

  std::vector<CbBudgetRequest> requests(zones_.size());
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    const auto n = static_cast<double>(zones_[z].spec.pdu_count);
    const Power over = wants[z].op.per_pdu > wants[z].pdu_allow
                           ? wants[z].op.per_pdu - wants[z].pdu_allow
                           : Power::zero();
    const Power ups_use = std::min(over, wants[z].ups_max);
    requests[z].demand = (wants[z].op.per_pdu - ups_use) * n;
    requests[z].child_allow = wants[z].pdu_allow * n;
  }
  // TES chiller relief raises the parent budget when the zones ask for more
  // than the substation may carry (phase 3's "reduce the chiller power").
  {
    Power total_ask = Power::zero();
    for (const auto& r : requests) total_ask += std::min(r.demand, r.child_allow);
    if (total_ask > parent && tes_active) {
      const Power chiller = cooling_.chiller_electrical(
          std::min(fleet_power, cooling_.thermal_capacity()));
      Power tes_rate_left = tes_->stored() / dt;
      const Power excess = fleet_power > cooling_.thermal_capacity()
                               ? fleet_power - cooling_.thermal_capacity()
                               : Power::zero();
      tes_rate_left = tes_rate_left > excess ? tes_rate_left - excess
                                             : Power::zero();
      const Power relief =
          std::min({total_ask - parent, chiller,
                    tes_rate_left * cooling_.chiller_elec_per_heat()});
      parent += relief;
      cooling_elec -= relief;  // projection of the relieved plant
    }
  }
  const std::vector<Power> grants = allocate_cb_budget(parent, requests);

  // Shed each zone to its grant, then commit.
  ZonalStepResult result;
  result.zones.resize(zones_.size());
  std::vector<Power> server_power(zones_.size());
  std::vector<Power> ups_request(zones_.size());
  Power committed_fleet = Power::zero();
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    ZoneRuntime& rt = zones_[z];
    const auto n = static_cast<double>(rt.spec.pdu_count);
    const Power grant_per_pdu = grants[z] / n;
    const std::size_t cores = shed_to_grant(demand[z], grant_per_pdu,
                                            wants[z].ups_max,
                                            topology_.groups()[z].pdu);
    const auto op = fleet_.operate_with_cores(demand[z], cores);
    const Power over = op.per_pdu > wants[z].pdu_allow
                           ? op.per_pdu - wants[z].pdu_allow
                           : Power::zero();
    const Power ups_use = std::min(over, wants[z].ups_max);
    server_power[z] = op.per_pdu;
    ups_request[z] = ups_use;
    committed_fleet += op.per_pdu * n;

    ZoneState& state = result.zones[z];
    state.demand = demand[z];
    state.achieved = op.achieved;
    state.degree = op.degree;
    state.active_cores = op.active_cores;
    state.grid_power = (op.per_pdu - ups_use) * n;
    state.ups_power = ups_use * n;
    if (op.degree > 1.0 + 1e-9) {
      sprint_time_ += dt / static_cast<double>(zones_.size());
    }
    if (demand[z] > 1.0) {
      rt.in_burst = true;
      rt.burst_elapsed += dt;
    } else {
      rt.in_burst = false;
    }
  }

  // Physical commit: cooling (with the relief it can actually deliver),
  // then the power topology, then the room.
  Power relief_commit = Power::zero();
  {
    Power grid_total = Power::zero();
    for (std::size_t z = 0; z < zones_.size(); ++z) {
      grid_total += result.zones[z].grid_power;
    }
    const Power no_relief_cooling =
        cooling_.electrical_projection(committed_fleet, tes_active, Power::zero());
    const Power dc_load = grid_total + no_relief_cooling;
    if (dc_load > dc_allow && tes_active) {
      relief_commit = dc_load - dc_allow;
    }
  }
  const thermal::CoolingStep cstep =
      cooling_.step(committed_fleet, tes_active, relief_commit, dt);
  const power::Flows flows =
      topology_.step(server_power, ups_request, cstep.electrical, dt);
  room_.step(committed_fleet, cstep.heat_absorbed, dt);

  ups_energy_ += flows.ups_total * dt;
  result.dc_load = flows.dc_load;
  result.cooling_power = cstep.electrical;
  result.tes_active = cstep.tes_active;
  result.tripped = flows.dc_tripped || flows.any_pdu_tripped;
  DCS_ENSURE(!result.tripped, "zonal sprinting must never trip a breaker");

  if (recorder_ != nullptr) {
    // Per-zone breakdown after the physical commit, so the breaker margin
    // reflects this tick's thermal state at this tick's committed load.
    for (std::size_t z = 0; z < zones_.size(); ++z) {
      const ZoneRuntime& rt = zones_[z];
      const power::Pdu& pdu = topology_.groups()[z].pdu;
      const ZoneState& state = result.zones[z];
      const std::string prefix = "zone" + std::to_string(z) + "/";
      recorder_->record(prefix + "demand", now, state.demand);
      recorder_->record(prefix + "degree", now, state.degree);
      recorder_->record(prefix + "grid_mw", now, state.grid_power.mw());
      recorder_->record(prefix + "ups_soc", now, pdu.ups().soc());
      const auto n = static_cast<double>(rt.spec.pdu_count);
      const Duration margin =
          pdu.breaker().time_to_trip_at(state.grid_power / n);
      recorder_->record(prefix + "cb_trip_margin_s", now,
                        margin.is_infinite()
                            ? kTripMarginCapSec
                            : std::min(margin.sec(), kTripMarginCapSec));
    }
    recorder_->record("dc_load_mw", now, result.dc_load.mw());
    recorder_->record("cooling_mw", now, result.cooling_power.mw());
  }
  return result;
}

ZonalRunResult ZonalController::run() {
  const Duration end = zones_.front().spec.demand->end_time();
  for (const ZoneRuntime& rt : zones_) {
    DCS_REQUIRE(rt.spec.demand->end_time() == end,
                "all zones must share the trace horizon");
  }
  const Duration dt = config_.control_period;
  std::vector<double> achieved(zones_.size(), 0.0);
  std::vector<double> baseline(zones_.size(), 0.0);
  ZonalRunResult out;
  for (Duration now = Duration::zero(); now < end; now += dt) {
    const ZonalStepResult step_result = step(now, dt);
    for (std::size_t z = 0; z < zones_.size(); ++z) {
      achieved[z] += step_result.zones[z].achieved * dt.sec();
      baseline[z] += std::min(step_result.zones[z].demand, 1.0) * dt.sec();
    }
    out.tripped = out.tripped || step_result.tripped;
  }
  double total_achieved = 0.0, total_baseline = 0.0;
  out.performance_factor.resize(zones_.size());
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    out.performance_factor[z] =
        baseline[z] > 0.0 ? achieved[z] / baseline[z] : 1.0;
    const auto weight = static_cast<double>(zones_[z].spec.pdu_count);
    total_achieved += achieved[z] * weight;
    total_baseline += baseline[z] * weight;
  }
  out.total_performance_factor =
      total_baseline > 0.0 ? total_achieved / total_baseline : 1.0;
  out.sprint_time = sprint_time_;
  out.ups_energy = ups_energy_;
  return out;
}

}  // namespace dcs::core
