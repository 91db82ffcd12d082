// The DataCenter facade: wires every substrate from a DataCenterConfig and
// runs demand traces through the sprinting controller, producing the
// metrics the paper's figures report.
//
// Each run() builds fresh subsystem state (breakers cold, batteries and TES
// full, room at setpoint), so a DataCenter is a reusable experiment factory.
//
// Zones: a run takes one demand trace per zone, each zone a contiguous run
// of PDUs that becomes one weighted PDU group of the plant
// (power/topology.h). The paper's uniform workload is the one-zone run, so
// its plant is a single group and a run costs the same at any
// `fleet.pdu_count`. Normalized results agree across PDU counts, and
// across splits of one demand into zones, to within floating-point
// rounding (~1e-13 relative; asserted by
// `DataCenter.NormalizedResultsAgreeAcrossPduCounts`), while absolute
// powers and energies scale with the count. The default stays at the
// paper's 909.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include <cstdint>

#include "compute/fleet.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/strategy.h"
#include "faults/schedule.h"
#include "faults/watchdog.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "sim/component.h"
#include "sim/recorder.h"
#include "util/time_series.h"
#include "util/units.h"

namespace dcs::core {

struct RunOptions {
  Mode mode = Mode::kControlled;
  /// Record full per-tick channels into RunResult::recorder.
  bool record = false;
  /// Optional utility-feed health over time (fraction of the DC rating in
  /// [0, 1]; a sample outside it throws before the first tick); must
  /// outlive the run. See SprintingController::set_supply_fraction.
  const TimeSeries* supply_fraction = nullptr;
  /// Optional backup generator used during supply disturbances; it is reset
  /// to a stopped, fault-free state at the start of every run.
  power::DieselGenerator* generator = nullptr;
  /// Optional fault schedule; must outlive the run. Null or empty keeps the
  /// fault-free fast path (bit-identical metrics to a build without faults).
  const faults::FaultSchedule* faults = nullptr;
  /// Seed for the injector's sensor-noise stream.
  std::uint64_t fault_seed = 0x5eedu;
  /// Optional structured-trace sink for the run loop's run-start / run-end
  /// instants and the controller's plant-state edges; must outlive the
  /// run. Rule firings (fault edges, ladder moves, the breaker screen,
  /// watchdog episodes) are recorded once, as decisions. All events carry
  /// sim time, so the stream is bit-identical regardless of who else runs
  /// in parallel. Null keeps the untraced fast path.
  obs::Tracer* tracer = nullptr;
  /// Optional decision-provenance log (obs/decision.h), usually built over
  /// the same tracer. The run loop stamps its sim time each control
  /// period and wires it through the controller, the fault injector and
  /// the watchdog, so every rule firing lands in the trace as a causal
  /// DecisionRecord. Must outlive the run.
  obs::DecisionLog* decisions = nullptr;
  /// Extra components ticked every control period *after* the control
  /// body, in vector order, so each ticks with the period's committed
  /// StepResult already published through on_step (e.g. a
  /// serving::ServingLayer whose service rates follow the active core set).
  /// Must outlive the run.
  std::vector<sim::Component*> components;
  /// Invoked at the end of every control period with the committed step —
  /// the hook that feeds the realized capacity degree (and anything else in
  /// StepResult) to the extra components without core depending on them.
  std::function<void(Duration now, Duration dt, const StepResult& step)>
      on_step;
};

/// One zone of a run: `pdu_count` contiguous PDUs serving `demand`,
/// normalized to the zone's own sprint-free capacity.
struct Zone {
  std::size_t pdu_count = 0;
  const TimeSeries* demand = nullptr;
};

/// The two sums a run's performance factor divides: achieved (normalized)
/// throughput and its no-sprint baseline min(demand, 1), each adding its
/// value times the control period once a tick, in tick order.
struct ThroughputIntegrals {
  double achieved = 0.0;
  double baseline = 0.0;

  void add(double achieved_now, double baseline_now, Duration dt) noexcept {
    achieved += achieved_now * dt.sec();
    baseline += baseline_now * dt.sec();
  }
  /// Mean achieved over mean baseline across `horizon`; 0 without a
  /// baseline.
  [[nodiscard]] double performance_factor(Duration horizon) const noexcept {
    const double mean = achieved / horizon.sec();
    const double mean_baseline = baseline / horizon.sec();
    return mean_baseline > 0.0 ? mean / mean_baseline : 0.0;
  }
};

/// Adds the ticks of a one-zone run of `demand` from `from` to the trace's
/// end, on the run loop's clock (`from` is one of its tick times), each
/// running only the normal cores: such a tick achieves
/// min(demand, throughput(normal)) = min(demand, 1), its own no-sprint
/// baseline. In a controlled, fault-free run every tick after the last
/// burst tick is one of these, whatever the strategy (the bound is 1
/// outside a burst), so adding them to the integrals of the run up to
/// there gives the whole run's, bit for bit.
void add_normal_ticks(ThroughputIntegrals& sums, const TimeSeries& demand,
                      Duration from, Duration dt);

struct RunResult {
  /// Time-weighted mean achieved (normalized) throughput.
  double avg_achieved = 0.0;
  /// Same metric for the analytic no-sprint baseline min(demand, 1).
  double avg_achieved_nosprint = 0.0;
  /// avg_achieved / avg_achieved_nosprint — the paper's "average
  /// performance normalized to the performance without sprinting".
  double performance_factor = 0.0;
  /// The sums avg_achieved and avg_achieved_nosprint divide by the
  /// horizon; performance_factor is `throughput.performance_factor(end)`.
  ThroughputIntegrals throughput;
  /// Fraction of offered demand dropped.
  double drop_fraction = 0.0;
  /// Time-average realized sprinting degree over the burst (demand > 1)
  /// time — the Oracle run's value is the Heuristic's "real best average
  /// sprinting degree". 1 when the trace has no burst.
  double avg_sprint_degree = 1.0;
  /// Time during which any zone sprinted.
  Duration sprint_time = Duration::zero();
  /// Time spent in each SprintPhase (normal, cb-overload, ups-assist,
  /// tes-cooling, shutdown) — the paper's Fig. 4 T1..T4 structure.
  std::array<Duration, 5> phase_time{};
  bool tripped = false;
  Duration trip_time = Duration::infinity();
  Energy ups_energy;
  Energy tes_saved_energy;
  Energy pdu_overload_energy;
  Energy dc_overload_energy;
  Temperature peak_room_temperature;
  /// Lowest state of charge of any zone's UPS banks.
  double min_ups_soc = 1.0;
  double min_tes_soc = 1.0;
  /// Battery wear counters of the most worn zone's per-PDU bank:
  /// discharge events, equivalent full cycles, and the deepest
  /// depth-of-discharge reached — inputs to power::BatteryLifetimeModel.
  std::size_t ups_discharge_events = 0;
  double ups_equivalent_cycles = 0.0;
  double ups_max_depth = 0.0;
  /// Highest degradation-ladder level the controller reached, and the time
  /// spent at each level (indexed by DegradationLevel). Nominal/zero-filled
  /// for non-controlled modes and fault-free runs.
  DegradationLevel max_degradation = DegradationLevel::kNominal;
  std::array<Duration, 5> degradation_time{};
  /// Invariant-watchdog diagnostics: DESIGN.md Section 6 invariants checked
  /// every tick against the *true* plant state.
  faults::WatchdogReport watchdog;
  /// Multi-zone runs only: each zone's time-weighted mean achieved over its
  /// no-sprint baseline min(demand, 1), in zone order.
  std::vector<double> zone_performance_factor;
  /// Per-tick channels (only when RunOptions::record): demand, achieved,
  /// achieved_nosprint, degree, bound, cores, phase, server_mw, cooling_mw,
  /// ups_mw, dc_load_mw, room_c, ups_soc, tes_soc, dc_cb_heat, pdu_cb_heat,
  /// cb_trip_margin_s (time-to-trip at the tick's load, capped at 3600 s so
  /// the channel stays finite), supply, degradation; plus faults_active and
  /// measured_demand when a fault schedule is attached. With several zones
  /// demand, achieved, achieved_nosprint and degree are PDU-weighted means,
  /// ups_soc and pdu_cb_heat the worst zone's, and each zone k adds the
  /// obs::kZonalChannelSuffixes channels under `zone<k>/` (its PDU breaker's
  /// margin capped like cb_trip_margin_s).
  sim::Recorder recorder;
};

class DataCenter {
 public:
  explicit DataCenter(DataCenterConfig config);

  /// Runs `demand` (normalized trace) on the whole fleet under `strategy`
  /// — the one-zone run. The strategy may be null for the baseline modes.
  [[nodiscard]] RunResult run(const TimeSeries& demand, Strategy* strategy,
                              const RunOptions& options = {});

  /// Runs one demand per zone. The zones tile the fleet in order (their PDU
  /// counts sum to `fleet.pdu_count`) and their traces share one horizon.
  /// The burst signal and the strategy see the largest zone demand.
  [[nodiscard]] RunResult run(const std::vector<Zone>& zones,
                              Strategy* strategy,
                              const RunOptions& options = {});

  /// EB_tot in degree-seconds with fresh subsystems — the Heuristic
  /// strategy's budget input.
  [[nodiscard]] double budget_degree_seconds() const;

  [[nodiscard]] const DataCenterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const compute::Fleet& fleet() const noexcept { return fleet_; }

 private:
  struct Plant;  // fresh-per-run subsystem bundle
  /// Empty `group_sizes` is one PDU group.
  [[nodiscard]] std::unique_ptr<Plant> make_plant(
      std::vector<std::size_t> group_sizes = {}) const;

  DataCenterConfig config_;
  compute::Fleet fleet_;
};

}  // namespace dcs::core
