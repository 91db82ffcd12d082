// Zonal sprinting: non-uniform bursts across PDU groups.
//
// The paper's experiments spread load evenly, but its Section V-B breaker
// rule is written for the general case: "if the power overload of a parent
// CB has already reached its upper bound, then a power increase on any of
// its child CBs demands a power decrease on some other child CBs". This
// controller implements that case — the fleet is partitioned into zones
// (contiguous runs of PDUs, each one weighted group of the power topology)
// with independent demand streams (each normalized to its own zone's
// sprint-free capacity), and each control period the substation budget
// left after cooling is divided across zones max-min fairly
// (core/cb_budget.h). A zone whose grant cannot feed its
// desired cores sheds cores; UPS banks cover each zone's gap above its own
// breaker bound. The TES phase stays facility-wide.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "compute/fleet.h"
#include "core/cb_budget.h"
#include "core/config.h"
#include "power/topology.h"
#include "sim/recorder.h"
#include "thermal/cooling_plant.h"
#include "thermal/room_model.h"
#include "thermal/tes_tank.h"
#include "util/time_series.h"
#include "util/units.h"

namespace dcs::core {

struct ZoneSpec {
  std::size_t pdu_count = 0;        ///< PDUs in this zone (contiguous)
  const TimeSeries* demand = nullptr;  ///< normalized to the zone's capacity
};

struct ZoneState {
  double demand = 0.0;
  double achieved = 0.0;
  double degree = 1.0;
  std::size_t active_cores = 0;
  Power grid_power;  ///< zone total grid draw
  Power ups_power;   ///< zone total UPS discharge
};

struct ZonalStepResult {
  std::vector<ZoneState> zones;
  Power dc_load;
  Power cooling_power;
  bool tes_active = false;
  bool tripped = false;
};

struct ZonalRunResult {
  /// Per-zone time-weighted mean achieved / no-sprint baseline.
  std::vector<double> performance_factor;
  /// Aggregate performance over all zones (capacity-weighted).
  double total_performance_factor = 0.0;
  bool tripped = false;
  Duration sprint_time = Duration::zero();
  Energy ups_energy;
};

class ZonalController {
 public:
  /// The zones must tile the topology exactly (sum of pdu_count == PDUs).
  ZonalController(const DataCenterConfig& config, std::vector<ZoneSpec> zones);

  /// Runs the zones' demand traces (all must share the same end time).
  [[nodiscard]] ZonalRunResult run();

  /// One control period (exposed for tests).
  [[nodiscard]] ZonalStepResult step(Duration now, Duration dt);

  /// Optional per-tick channel sink (must outlive the controller). Each
  /// step then records, per zone k, `zone<k>/demand`, `zone<k>/degree`,
  /// `zone<k>/grid_mw`, `zone<k>/ups_soc` and `zone<k>/cb_trip_margin_s`
  /// (the zone's PDU breaker time-to-trip at its committed load, capped
  /// at 3600 s), plus facility-wide `dc_load_mw` /
  /// `cooling_mw` — the channels obs::with_zonal_channels names for
  /// Perfetto counter-track export. Null (the default) keeps the unrecorded
  /// fast path.
  void set_recorder(sim::Recorder* recorder) noexcept { recorder_ = recorder; }

 private:
  struct ZoneRuntime {
    ZoneSpec spec;
    bool in_burst = false;
    Duration burst_elapsed = Duration::zero();
  };

  [[nodiscard]] std::size_t shed_to_grant(double demand, Power grant,
                                          Power ups_max,
                                          const power::Pdu& zone_pdu) const;

  DataCenterConfig config_;
  compute::Fleet fleet_;
  power::PowerTopology topology_;
  std::unique_ptr<thermal::TesTank> tes_;
  thermal::CoolingPlant cooling_;
  thermal::RoomModel room_;
  std::vector<ZoneRuntime> zones_;
  sim::Recorder* recorder_ = nullptr;
  Duration sprint_time_ = Duration::zero();
  Energy ups_energy_ = Energy::zero();
  bool any_burst_seen_ = false;
  Duration first_burst_elapsed_ = Duration::zero();
  /// Cached config_.tes_activation_time() (a run constant) — the accessor
  /// rebuilds the peak-power arithmetic per call, too heavy for every step.
  Duration tes_activation_time_ = Duration::zero();
};

}  // namespace dcs::core
