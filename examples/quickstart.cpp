// Quickstart: build the paper's default data center, replay the synthetic
// MS workload, and compare Data Center Sprinting against the baselines.
//
// Usage: quickstart [key=value ...]   e.g.  quickstart dc_headroom=0.2 pdus=16
#include <iostream>

#include "bench_util.h"
#include "core/datacenter.h"
#include "core/oracle.h"
#include "util/config.h"
#include "util/table.h"
#include "workload/burst.h"
#include "workload/ms_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;

  using bench::Kind;
  static constexpr bench::Key kKeys[] = {
      {"pdus", Kind::kCount}, {"dc_headroom", Kind::kNumber}};
  const Config args = bench::read_args(argc, argv, kKeys);

  core::DataCenterConfig config;
  // Normalized results agree across PDU counts to rounding and a run costs
  // the same at any count (see datacenter.h); only absolute powers scale.
  config.fleet.pdu_count = args.get_count("pdus", 8);
  config.dc_headroom = args.get_double("dc_headroom", 0.10);
  core::DataCenter dc = bench::checked(
      argv[0], args, {"pdus", "dc_headroom"}, "data center",
      [&] { return core::DataCenter(config); });

  const TimeSeries demand = workload::generate_ms_trace();
  const workload::BurstStats stats = workload::analyze_bursts(demand);
  std::cout << "Synthetic MS trace: peak demand "
            << format_double(stats.peak_demand, 2) << "x capacity, "
            << format_double(stats.over_capacity_time.min(), 1)
            << " min over capacity in " << stats.burst_count << " bursts\n\n";

  TablePrinter table({"mode", "avg perf", "drop %", "sprint min", "UPS kWh",
                      "TES kWh", "peak room C", "tripped"});
  auto report = [&](const char* label, const core::RunResult& r) {
    table.add_row(label,
                  {r.performance_factor, r.drop_fraction * 100.0,
                   r.sprint_time.min(), r.ups_energy.kwh(),
                   r.tes_saved_energy.kwh(), r.peak_room_temperature.c(),
                   r.tripped ? 1.0 : 0.0});
  };

  core::RunOptions opts;
  report("no-sprint", dc.run(demand, nullptr, {.mode = core::Mode::kNoSprint}));
  report("power-capped",
         dc.run(demand, nullptr, {.mode = core::Mode::kPowerCapped}));
  report("uncontrolled",
         dc.run(demand, nullptr, {.mode = core::Mode::kUncontrolled}));

  core::GreedyStrategy greedy;
  report("DCS greedy", dc.run(demand, &greedy, opts));

  const core::OracleResult oracle = core::oracle_search(dc, demand);
  core::ConstantBoundStrategy best(oracle.best_bound, "oracle");
  report("DCS oracle", dc.run(demand, &best, opts));

  table.print(std::cout);
  std::cout << "\nOracle best bound: " << format_double(oracle.best_bound, 2)
            << " (degree)\n";
  return 0;
}
