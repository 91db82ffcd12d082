#include "core/datacenter.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "faults/injector.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "util/check.h"
#include "workload/admission.h"

namespace dcs::core {
namespace {

/// Cap for the recorded cb_trip_margin_s channels: an infinite time-to-trip
/// (load below the breaker threshold) records as one hour, so the channel
/// stays finite (infinity has no JSON literal for trace export); an hour of
/// margin is indistinguishable from "safe" on every figure.
constexpr double kTripMarginCapSec = 3600.0;

double capped_margin_s(const power::CircuitBreaker& breaker, Power load) {
  const Duration margin = breaker.time_to_trip_at(load);
  return margin.is_infinite() ? kTripMarginCapSec
                              : std::min(margin.sec(), kTripMarginCapSec);
}

/// The facility channels a recorded run writes every tick, in row order.
/// Fault-injected runs add faults_active and measured_demand, and
/// multi-zone runs the obs::with_zonal_channels channels after those.
const std::vector<std::string> kRunChannels = {
    "demand", "achieved", "achieved_nosprint", "degree", "bound", "cores",
    "phase", "server_mw", "cooling_mw", "ups_mw", "dc_load_mw", "room_c",
    "ups_soc", "tes_soc", "dc_cb_heat", "pdu_cb_heat", "cb_trip_margin_s",
    "supply", "degradation"};

}  // namespace

struct DataCenter::Plant {
  power::PowerTopology topology;
  std::unique_ptr<thermal::TesTank> tes;  // null when has_tes is false
  thermal::CoolingPlant cooling;
  thermal::RoomModel room;
  compute::PcmHeatSink pcm;  // representative chip package, hottest zone

  Plant(const DataCenterConfig& config, std::vector<std::size_t> group_sizes)
      : topology([&] {
          power::PowerTopology::Params params = config.topology_params();
          params.group_sizes = std::move(group_sizes);
          return params;
        }()),
        tes(config.has_tes
                ? std::make_unique<thermal::TesTank>("dc/tes", config.tes_params())
                : nullptr),
        cooling(config.cooling_params(tes.get())),
        room(config.room_params()),
        pcm(config.chip_pcm) {}
};

DataCenter::DataCenter(DataCenterConfig config)
    : config_(std::move(config)), fleet_(config_.fleet) {
  config_.validate();
}

std::unique_ptr<DataCenter::Plant> DataCenter::make_plant(
    std::vector<std::size_t> group_sizes) const {
  return std::make_unique<Plant>(config_, std::move(group_sizes));
}

double DataCenter::budget_degree_seconds() const {
  auto plant = make_plant();
  compute::Fleet fleet(config_.fleet);
  SprintingController::Deps deps{&fleet, &plant->topology, &plant->cooling,
                                 plant->tes.get(), &plant->room, &plant->pcm};
  const SprintingController controller(config_, deps, nullptr, Mode::kNoSprint);
  return controller.total_budget_degree_seconds();
}

RunResult DataCenter::run(const TimeSeries& demand, Strategy* strategy,
                          const RunOptions& options) {
  return run(std::vector<Zone>{{config_.fleet.pdu_count, &demand}}, strategy,
             options);
}

RunResult DataCenter::run(const std::vector<Zone>& zones, Strategy* strategy,
                          const RunOptions& options) {
  DCS_REQUIRE(!zones.empty(), "need at least one zone");
  std::vector<std::size_t> sizes;
  for (const Zone& zone : zones) {
    DCS_REQUIRE(zone.demand != nullptr && !zone.demand->empty(),
                "demand trace is empty");
    DCS_REQUIRE(zone.demand->end_time() == zones.front().demand->end_time(),
                "all zones must share the trace horizon");
    sizes.push_back(zone.pdu_count);
  }
  // The topology rejects zones that do not tile the fleet.
  auto plant = make_plant(std::move(sizes));
  SprintingController::Deps deps{&fleet_, &plant->topology, &plant->cooling,
                                 plant->tes.get(), &plant->room, &plant->pcm};
  SprintingController controller(config_, deps, strategy, options.mode);
  controller.set_supply_fraction(options.supply_fraction);
  controller.set_tracer(options.tracer);
  controller.set_decision_log(options.decisions);
  if (options.generator != nullptr) {
    options.generator->reset();
    controller.attach_generator(options.generator);
  }

  // Fault injection is strictly opt-in: without a non-empty schedule no
  // injector exists and the run takes the fault-free fast path.
  std::unique_ptr<faults::FaultInjector> injector;
  if (options.faults != nullptr && !options.faults->empty()) {
    injector = std::make_unique<faults::FaultInjector>(
        *options.faults,
        faults::FaultInjector::Bindings{&plant->topology, &plant->cooling,
                                        plant->tes.get(), options.generator},
        options.fault_seed);
    injector->set_decision_log(options.decisions);
    controller.set_fault_injector(injector.get());
  }
  faults::Watchdog watchdog(faults::Watchdog::Options{
      config_.battery_per_server.reserve_floor,
      /*check_breakers=*/options.mode != Mode::kUncontrolled,
      /*check_room=*/options.mode != Mode::kUncontrolled});
  watchdog.set_decision_log(options.decisions);

  // One PDU group per zone; every PDU in a group shares its state. The
  // facility channels report the worst bank and the hottest breaker.
  const std::vector<power::PowerTopology::Group>& groups =
      plant->topology.groups();
  const auto worst_ups_soc = [&] {
    double soc = groups.front().pdu.ups().soc();
    for (std::size_t i = 1; i < groups.size(); ++i) {
      soc = std::min(soc, groups[i].pdu.ups().soc());
    }
    return soc;
  };
  const std::size_t k = zones.size();
  std::vector<double> weights;
  for (const Zone& zone : zones) {
    weights.push_back(static_cast<double>(zone.pdu_count) /
                      static_cast<double>(config_.fleet.pdu_count));
  }

  RunResult result;
  workload::AdmissionController sprint_admission;
  const Duration dt = config_.control_period;
  const Duration end = zones.front().demand->end_time();

  std::vector<ThroughputIntegrals> zone_throughput(k > 1 ? k : 0);
  double burst_degree_integral = 0.0;
  double burst_seconds = 0.0;
  // Recorded runs append one row a tick to columns reserved for the whole
  // horizon, so recording allocates nothing per tick.
  std::vector<double> row;
  if (options.record) {
    std::vector<std::string> channels = kRunChannels;
    if (injector != nullptr) {
      channels.insert(channels.end(), {"faults_active", "measured_demand"});
    }
    if (k > 1) channels = obs::with_zonal_channels(std::move(channels), k);
    row.reserve(channels.size());
    result.recorder.start(std::move(channels),
                          static_cast<std::size_t>(std::ceil(end / dt)) + 1);
  }

  // Cursor-based trace reads: the run visits times monotonically, so every
  // sample lookup is O(1) amortized instead of a binary search per tick.
  std::vector<TimeSeries::Cursor> cursors(k);
  std::vector<double> demands(k);

  // The control body of one period: everything but the extra components.
  const auto control_body = [&](Duration now) {
    // One time stamp per control period: everything that emits decisions
    // this tick (injector, controller, watchdog, and the serving
    // components ticking after the control body) shares it.
    if (options.decisions != nullptr) options.decisions->set_now(now);
    double peak = 0.0;      // the largest zone demand: the burst signal
    double baseline = 0.0;  // PDU-weighted min(demand, 1)
    for (std::size_t z = 0; z < k; ++z) {
      demands[z] = zones[z].demand->at(now, cursors[z]);
      peak = std::max(peak, demands[z]);
      baseline += std::min(demands[z], 1.0) * weights[z];
    }
    if (injector != nullptr) injector->apply(now);
    const StepResult step = controller.step(now, demands, dt);
    const double d = step.demand;  // PDU-weighted facility demand
    watchdog.check(now, plant->topology, plant->room, plant->tes.get());

    result.throughput.add(step.achieved, baseline, dt);
    for (std::size_t z = 0; z < zone_throughput.size(); ++z) {
      zone_throughput[z].add(controller.group_ops()[z].achieved,
                             std::min(demands[z], 1.0), dt);
    }
    if (peak > 1.0) {
      burst_degree_integral += step.degree * dt.sec();
      burst_seconds += dt.sec();
    }
    sprint_admission.admit(d, step.achieved, dt);

    result.min_ups_soc = std::min(result.min_ups_soc, worst_ups_soc());
    if (plant->tes != nullptr) {
      result.min_tes_soc =
          std::min(result.min_tes_soc, plant->tes->state_of_charge());
    }

    if (options.record) {
      // In channel order: kRunChannels, the fault channels, zonal channels.
      row.assign(
          {d, step.achieved, baseline, step.degree, step.upper_bound,
           static_cast<double>(step.active_cores),
           static_cast<double>(step.phase), step.server_power.mw(),
           step.cooling_power.mw(), step.ups_power.mw(), step.dc_load.mw(),
           step.room.c(), worst_ups_soc(),
           plant->tes != nullptr ? plant->tes->state_of_charge() : 0.0,
           plant->topology.dc_breaker().thermal_state(),
           plant->topology.max_pdu_breaker_heat(),
           capped_margin_s(plant->topology.dc_breaker(), step.dc_load),
           step.supply_fraction, static_cast<double>(step.degradation)});
      if (injector != nullptr) {
        row.insert(row.end(), {static_cast<double>(step.faults_active),
                               step.measured_demand});
      }
      if (k > 1) {
        for (std::size_t z = 0; z < k; ++z) {
          const power::Pdu& pdu = groups[z].pdu;
          const Power grid = pdu.last_grid_load();
          // In obs::kZonalChannelSuffixes order.
          row.insert(row.end(),
                     {demands[z], controller.group_ops()[z].degree,
                      (grid * static_cast<double>(groups[z].count)).mw(),
                      pdu.ups().soc(), capped_margin_s(pdu.breaker(), grid)});
        }
      }
      result.recorder.append(now, row);
    }

    if (options.on_step) options.on_step(now, dt, step);
  };

  for (const sim::Component* component : options.components) {
    DCS_REQUIRE(component != nullptr, "run components must not be null");
  }
  if (options.tracer != nullptr) {
    options.tracer->instant(Duration::zero(), "engine", "run-start",
                            {obs::arg("end_s", end.sec()),
                             obs::arg("step_s", dt.sec())});
  }
  // Time advances by accumulation from zero, so tick times are the same
  // doubles for any control period.
  Duration now = Duration::zero();
  std::size_t ticks = 0;
  {
    DCS_OBS_SPAN("sim.run");
    while (now < end) {
      control_body(now);
      // Extra components (e.g. the request-level serving layer) tick after
      // the control body, so they see the period's committed StepResult
      // via on_step.
      for (sim::Component* component : options.components) {
        component->tick(now, dt);
      }
      now += dt;
      ++ticks;
    }
  }
  if (options.tracer != nullptr) {
    options.tracer->instant(now, "engine", "run-end",
                            {obs::arg("ticks", static_cast<double>(ticks)),
                             obs::arg("stopped", false)});
  }

  result.avg_achieved = result.throughput.achieved / end.sec();
  result.avg_achieved_nosprint = result.throughput.baseline / end.sec();
  result.performance_factor = result.throughput.performance_factor(end);
  result.drop_fraction = sprint_admission.drop_fraction();
  result.avg_sprint_degree =
      burst_seconds > 0.0 ? burst_degree_integral / burst_seconds : 1.0;
  result.sprint_time = controller.sprint_time();
  for (std::size_t i = 0; i < result.phase_time.size(); ++i) {
    result.phase_time[i] = controller.phase_time(static_cast<SprintPhase>(i));
  }
  result.tripped = controller.shutdown();
  result.trip_time = controller.trip_time();
  result.ups_energy = controller.ups_energy();
  result.tes_saved_energy = controller.tes_saved_energy();
  result.pdu_overload_energy = controller.pdu_overload_energy();
  result.dc_overload_energy = controller.dc_overload_energy();
  result.peak_room_temperature = plant->room.peak_temperature();
  result.max_degradation = controller.max_degradation();
  for (std::size_t i = 0; i < result.degradation_time.size(); ++i) {
    result.degradation_time[i] =
        controller.degradation_time(static_cast<DegradationLevel>(i));
  }
  result.watchdog = watchdog.report();
  for (const auto& g : groups) {
    const power::Battery& bank = g.pdu.ups();
    result.ups_discharge_events =
        std::max(result.ups_discharge_events, bank.discharge_events());
    result.ups_equivalent_cycles =
        std::max(result.ups_equivalent_cycles, bank.equivalent_full_cycles());
  }
  result.ups_max_depth = 1.0 - result.min_ups_soc;
  for (const ThroughputIntegrals& zone : zone_throughput) {
    result.zone_performance_factor.push_back(
        zone.baseline > 0.0 ? zone.achieved / zone.baseline : 0.0);
  }
  return result;
}

void add_normal_ticks(ThroughputIntegrals& sums, const TimeSeries& demand,
                      Duration from, Duration dt) {
  TimeSeries::Cursor cursor;
  for (Duration now = from; now < demand.end_time(); now += dt) {
    const double held = std::min(demand.at(now, cursor), 1.0);
    sums.add(held, held, dt);
  }
}

}  // namespace dcs::core
