// The Data Center Sprinting controller (paper Sections IV-V).
//
// Each control period (1 s) the controller:
//  1. detects bursts (normalized demand > 1) and asks the strategy for the
//     sprinting-degree upper bound;
//  2. finds the largest feasible active-core count under that bound given
//     the breaker governor (keep every breaker's remaining trip time at or
//     above the reserve — Section V-B's shrinking overload bound), the UPS
//     banks' power/energy limits, and the DC-level budget including cooling;
//  3. coordinates the three phases: CB overload only (phase 1), UPS
//     discharge for the gap the breakers may no longer carry (phase 2), and
//     TES-backed cooling from the CFD-derived activation time (phase 3);
//  4. commits the loads to the physical models (breaker thermal state,
//     battery/tank charge, room temperature) and enforces the terminal
//     rules: room over threshold or TES exhausted in phase 3 ends the
//     sprint (Section V-C).
//
// PDU groups: the topology is a list of weighted PDU groups (one for the
// uniform fleet, one per zone for non-uniform bursts), each with its own
// demand. The feasibility search finds one core cap per server shared by
// every group; each group is also held to the cores its own demand asks
// for and to its own PDU tier, so a zone whose desired point fits under the
// cap is served in full (max-min fair per server). A DC-tier shortfall is
// spread over the groups' UPS headroom per PDU (core/cb_budget.h) —
// Section V-B's "a power increase on any of its child CBs demands a power
// decrease on some other child CBs".
//
// Modes: the same stepping core also implements the paper's baselines —
// uncontrolled chip-level sprinting (no governor, no ESDs; breakers trip
// and the data center goes dark, Fig. 8a), no-sprint, and a conventional
// power-capping baseline that never exceeds any rating.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "compute/dvfs.h"
#include "compute/fleet.h"
#include "core/cb_budget.h"
#include "core/config.h"
#include "core/strategy.h"
#include "faults/injector.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "power/generator.h"
#include "power/topology.h"
#include "util/time_series.h"
#include "thermal/cooling_plant.h"
#include "thermal/room_model.h"
#include "thermal/tes_tank.h"
#include "util/units.h"

namespace dcs::core {

enum class Mode {
  kControlled,    ///< full Data Center Sprinting
  kUncontrolled,  ///< chip-level sprinting with no DC-level control (Fig. 8a)
  kNoSprint,      ///< normal cores only
  kPowerCapped,   ///< extra cores only within ratings; no overload, no ESDs
  kDvfsCapped,    ///< conventional DVFS capping: boost frequency, not cores
};

/// Tolerance on sprinting degrees and on normalized demand around 1.
inline constexpr double kDegreeEps = 1e-9;

/// The controller's burst test: normalized demand above 1 is a burst
/// (Section IV-A).
[[nodiscard]] constexpr bool burst_active(double demand) noexcept {
  return demand > 1.0 + kDegreeEps;
}

enum class SprintPhase {
  kNormal = 0,    ///< not sprinting
  kCbOverload = 1,///< phase 1: breaker tolerance only
  kUpsAssist = 2, ///< phase 2: UPS carrying part of the load
  kTesCooling = 3,///< phase 3: TES carrying the cooling load
  kShutdown = 4,  ///< a breaker tripped (uncontrolled mode only)
};

[[nodiscard]] std::string_view to_string(SprintPhase phase) noexcept;

/// Where the controller sits on the graceful-degradation ladder this step
/// (Section IV-A's reactive safety actions, generalized to injected faults).
/// Levels are ordered by how much sprinting capability has been given up.
enum class DegradationLevel {
  kNominal = 0,   ///< no active fault, full capability
  kDerated = 1,   ///< faults active; feasibility re-solved on the degraded set
  kShedding = 2,  ///< the degree was shed below the strategy's bound
  kSprintEnded = 3,      ///< the sprint was ended by a fault/disturbance
  kPowerCapFallback = 4, ///< last resort: stepping as power-capped
};

[[nodiscard]] std::string_view to_string(DegradationLevel level) noexcept;

/// Everything one control step produced (for recording and tests). With
/// several PDU groups, `demand`, `achieved` and `degree` are PDU-weighted
/// means over the groups and `active_cores` is the largest group's.
struct StepResult {
  double demand = 0.0;
  double achieved = 0.0;        ///< normalized throughput delivered
  double degree = 1.0;          ///< realized sprinting degree
  double upper_bound = 1.0;     ///< strategy bound after clamping
  std::size_t active_cores = 0; ///< per server
  SprintPhase phase = SprintPhase::kNormal;
  Power server_power;           ///< fleet-wide IT power
  Power cooling_power;          ///< cooling electrical power
  Power ups_power;              ///< fleet-wide UPS discharge
  Power dc_load;                ///< substation breaker load
  double supply_fraction = 1.0; ///< utility feed health this step
  Power tes_heat;               ///< heat absorbed by the TES
  Power tes_relief;             ///< chiller electrical displaced by the TES
  Temperature room;
  bool tripped = false;
  /// The burst signal as the controller saw it: the largest group demand,
  /// through the demand sensor. With one group it differs from `demand`
  /// only under an injected sensor fault.
  double measured_demand = 0.0;
  /// Faults active this step (0 without a fault injector).
  std::size_t faults_active = 0;
  DegradationLevel degradation = DegradationLevel::kNominal;
};

class SprintingController {
 public:
  struct Deps {
    compute::Fleet* fleet = nullptr;
    power::PowerTopology* topology = nullptr;
    thermal::CoolingPlant* cooling = nullptr;
    thermal::TesTank* tes = nullptr;  // may be null (no-TES ablation)
    thermal::RoomModel* room = nullptr;
    /// Representative chip PCM heat sink, stepped at the hottest group's
    /// chip power; may be null to skip chip-level thermal limits.
    compute::PcmHeatSink* pcm = nullptr;
  };

  /// kPowerCapped and kDvfsCapped step one PDU group only.
  SprintingController(const DataCenterConfig& config, const Deps& deps,
                      Strategy* strategy, Mode mode);

  /// Advances one control period with one normalized demand per PDU group.
  StepResult step(Duration now, std::span<const double> demands, Duration dt);
  /// One-group plants.
  StepResult step(Duration now, double demand, Duration dt) {
    return step(now, std::span<const double>(&demand, 1), dt);
  }

  /// Each group's operating point committed by the last step.
  [[nodiscard]] std::span<const compute::Fleet::Operation> group_ops()
      const noexcept {
    return ops_;
  }

  /// Utility-feed health over time as a fraction of the DC rating in [0, 1]
  /// (1 = healthy; below 1 models the paper's "unexpected power spikes in
  /// the utility power supply", which immediately end the sprint). Throws
  /// std::invalid_argument when a sample lies outside [0, 1]. The series
  /// must outlive the controller; nullptr restores a healthy feed.
  void set_supply_fraction(const TimeSeries* fraction);
  /// Optional backup generator, started automatically on a disturbance.
  void attach_generator(power::DieselGenerator* generator) noexcept {
    generator_ = generator;
  }
  /// Optional fault injector: the controller reads demand/power/temperature
  /// through its sensor filters and climbs the degradation ladder on its
  /// active-fault state. The injector must outlive the controller; null
  /// (the default) keeps the fault-free fast path.
  void set_fault_injector(faults::FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  /// Optional structured-trace sink. step() emits one instant per plant
  /// state edge that has no DecisionRecord: sprint-phase changes, DC-breaker
  /// overload entry/exit, and UPS/TES activation edges. Ladder moves and
  /// the breaker's trip-margin screen are decisions (set_decision_log).
  /// Must outlive the controller.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  /// Optional decision-provenance log (obs/decision.h). step() emits one
  /// DecisionRecord per rule firing — burst/supply/breaker-screen triggers,
  /// sprint onset/end, ladder moves — with the measured inputs and
  /// thresholds each rule evaluated. Must outlive the controller.
  void set_decision_log(obs::DecisionLog* decisions) noexcept {
    decisions_ = decisions;
  }

  // --- accumulated accounting (for RunResult) ---
  [[nodiscard]] Energy ups_energy() const noexcept { return ups_energy_; }
  /// Chiller electrical energy displaced by the TES.
  [[nodiscard]] Energy tes_saved_energy() const noexcept { return tes_saved_; }
  /// Above-rating energy carried by the PDU breakers.
  [[nodiscard]] Energy pdu_overload_energy() const noexcept { return pdu_overload_; }
  /// Above-rating energy carried by the DC breaker.
  [[nodiscard]] Energy dc_overload_energy() const noexcept { return dc_overload_; }
  /// Aggregated time during which any group sprinted (degree > 1).
  [[nodiscard]] Duration sprint_time() const noexcept { return sprint_time_; }
  /// Aggregated time spent in each phase (indexed by SprintPhase) — the
  /// T1..T4 structure of the paper's Fig. 4.
  [[nodiscard]] Duration phase_time(SprintPhase phase) const noexcept {
    return phase_time_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] bool shutdown() const noexcept { return shutdown_; }
  [[nodiscard]] Duration trip_time() const noexcept { return trip_time_; }
  /// Highest degradation-ladder level reached so far.
  [[nodiscard]] DegradationLevel max_degradation() const noexcept {
    return max_degradation_;
  }
  /// Aggregated time spent at each DegradationLevel.
  [[nodiscard]] Duration degradation_time(DegradationLevel level) const noexcept {
    return degradation_time_[static_cast<std::size_t>(level)];
  }
  /// Remaining / total additional-energy budget (drives the Heuristic).
  [[nodiscard]] double remaining_energy_fraction() const;
  /// Total additional-energy budget in degree-seconds (for HeuristicStrategy).
  [[nodiscard]] double total_budget_degree_seconds() const noexcept {
    return budget_total_ds_;
  }

 private:
  /// Per-PDU-group working state, sized at construction.
  struct Group {
    double count = 0.0;       ///< PDUs in the group
    double weight = 0.0;      ///< count / PDUs in the fleet
    double demand = 0.0;      ///< true demand this step
    double measured = 0.0;    ///< demand as the controller saw it
    std::size_t desired = 0;  ///< cores the bound asks for (pre-shedding)
    std::size_t hold = 0;     ///< desired, capped by the group's PDU tier
    /// This step's bank discharge limit and breaker governor bound, worked
    /// out on first need (the plant does not change while the search runs).
    std::optional<Power> ups_limit;
    std::optional<Power> pdu_allow;
    Power load;               ///< the candidate's server power per PDU
    Power ups;                ///< the candidate's UPS discharge per PDU
  };

  struct Feasible {
    std::size_t cap;   ///< cores per server, shared by every group
    Power tes_relief;  ///< chiller electrical displaced to relieve the DC CB
    bool tes_active;
  };

  [[nodiscard]] SprintContext make_context(double demand,
                                           double energy_fraction) const;
  [[nodiscard]] bool should_activate_tes() const;
  /// Leaves each group's UPS discharge per PDU in ups_.
  [[nodiscard]] Feasible find_feasible(double bound, Duration dt);
  [[nodiscard]] bool check_cores(std::size_t cap, bool tes_active, Duration dt,
                                 Power* tes_relief);
  /// The bank's discharge limit: inverter power and stored energy.
  [[nodiscard]] Power discharge_limit(Group& group, const power::Pdu& pdu,
                                      Duration dt) const;
  [[nodiscard]] bool pdu_tier_ok(Group& group, const power::Pdu& pdu,
                                 Duration dt) const;
  [[nodiscard]] std::size_t pdu_tier_cap(std::size_t g, Duration dt);
  /// Loads ops_ into the plant inputs (load_) and the result's facility
  /// fields; returns the fleet's server power.
  Power commit_ops(StepResult& result);
  StepResult step_controlled(Duration now, double demand, double peak,
                             Duration dt);
  StepResult step_uncontrolled(double demand, Duration dt);
  StepResult step_capped(double demand, Duration dt, bool allow_extra_cores);
  StepResult step_dvfs(double demand, Duration dt);
  /// Ladder last resort: margins critically tight under faults.
  [[nodiscard]] bool should_fall_back() const;
  void account(const StepResult& result, Duration dt);
  void trace_transitions(Duration now, const StepResult& result);
  [[nodiscard]] Energy cb_budget_estimate() const;
  [[nodiscard]] Power power_per_degree() const;

  DataCenterConfig config_;
  Deps deps_;
  Strategy* strategy_;
  Mode mode_;
  /// Cached config-derived ratings: the DataCenterConfig accessors build a
  /// throwaway compute::Fleet per call, far too heavy for the per-tick
  /// paths (grid cap, feasibility checks, overload accounting, tracing).
  Power dc_rated_;
  Power pdu_rated_;
  Power fleet_peak_sprint_;
  Power power_per_degree_;
  Duration tes_activation_time_ = Duration::zero();
  Energy budget_total_energy_ = Energy::zero();
  compute::DvfsModel dvfs_{};
  const TimeSeries* supply_fraction_ = nullptr;
  TimeSeries::Cursor supply_cursor_;
  power::DieselGenerator* generator_ = nullptr;
  faults::FaultInjector* injector_ = nullptr;
  /// Utility + generator power available this step (set in step_controlled,
  /// consumed by check_cores).
  Power grid_cap_;
  bool grid_limited_ = false;
  /// The substation governor's bound (and the feed's) for this step's
  /// search, worked out on first need.
  std::optional<Power> dc_allow_;

  // per-group scratch: a step allocates nothing
  std::vector<Group> groups_;
  std::vector<compute::Fleet::Operation> ops_;  ///< committed per group
  std::vector<Power> load_;  ///< per-PDU server power, the plant's input
  std::vector<Power> ups_;   ///< per-PDU UPS discharge (or recharge)
  std::vector<CbBudgetRequest> requests_;
  std::vector<Power> grants_;

  // burst / sprint state
  bool in_burst_ = false;
  bool sprint_terminated_ = false;
  Duration burst_elapsed_ = Duration::zero();   // aggregated demand>1 time
  Duration sprint_elapsed_ = Duration::zero();  // aggregated degree>1 time
  double degree_time_integral_ = 0.0;           // for SDe_avg
  double max_demand_in_burst_ = 1.0;

  // accounting
  Energy ups_energy_ = Energy::zero();
  Energy tes_saved_ = Energy::zero();
  Energy pdu_overload_ = Energy::zero();
  Energy dc_overload_ = Energy::zero();
  Duration sprint_time_ = Duration::zero();
  Duration phase_time_[5] = {};
  bool shutdown_ = false;
  Duration trip_time_ = Duration::infinity();
  double budget_total_ds_ = 0.0;
  Energy cb_budget_initial_ = Energy::zero();

  // degradation ladder
  bool fallback_ = false;  // latched power-cap fallback (with hysteresis)
  DegradationLevel max_degradation_ = DegradationLevel::kNominal;
  Duration degradation_time_[5] = {};

  // transition tracing (previous-step state for edge detection)
  obs::Tracer* tracer_ = nullptr;
  obs::DecisionLog* decisions_ = nullptr;
  SprintPhase prev_phase_ = SprintPhase::kNormal;
  DegradationLevel prev_degradation_ = DegradationLevel::kNominal;
  bool prev_ups_active_ = false;
  bool prev_tes_active_ = false;
  bool prev_dc_overload_ = false;
  bool prev_margin_low_ = false;
  bool prev_in_burst_ = false;
  bool prev_sprinting_ = false;
  bool prev_grid_limited_ = false;
};

}  // namespace dcs::core
