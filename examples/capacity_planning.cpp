// Capacity planning: size the energy-storage fleet for a target burst.
//
// Given a burst profile (degree, duration) and a service-level target
// (minimum average performance factor), sweeps per-server UPS capacity and
// TES minutes and reports the cheapest combination that meets the target —
// the sizing question an operator adopting Data Center Sprinting actually
// has to answer.
//
// Usage: capacity_planning [degree=3.2] [minutes=15] [target=1.8]
#include <iostream>
#include <optional>

#include "bench_util.h"
#include "core/datacenter.h"
#include "core/oracle.h"
#include "util/config.h"
#include "util/table.h"
#include "workload/yahoo_trace.h"

namespace {

/// Rough capital cost of the ESDs, $ per server: LFP ~$0.5/Wh, TES ~$30/kWh
/// of thermal storage spread over the fleet.
double esd_cost_per_server(const dcs::core::DataCenterConfig& config) {
  const dcs::Energy battery = config.battery_per_server.capacity.at_volts(
      config.battery_per_server.bus_voltage);
  const double ups_usd = battery.wh() * 0.5;
  const dcs::Energy tes = config.fleet_peak_normal() *
                          dcs::Duration::minutes(config.tes_capacity_minutes);
  const double server_count =
      static_cast<double>(config.fleet.servers_per_pdu * config.fleet.pdu_count);
  const double tes_usd = tes.kwh() * 0.03 / server_count * 1000.0;
  return ups_usd + tes_usd;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  using bench::Kind;
  static constexpr bench::Key kKeys[] = {
      {"degree", Kind::kNumber}, {"minutes", Kind::kNumber},
      {"target", Kind::kNumber}};
  const Config args = bench::read_args(argc, argv, kKeys);
  const double degree = args.get_double("degree", 3.2);
  const double minutes = args.get_double("minutes", 15.0);
  const double target = args.get_double("target", 1.8);

  workload::YahooTraceParams tp;
  tp.burst_degree = degree;
  tp.burst_duration = Duration::minutes(minutes);
  const TimeSeries trace = workload::generate_yahoo_trace(tp);

  std::cout << "Sizing for a " << format_double(degree, 1) << "x / "
            << format_double(minutes, 0) << "-min burst, target avg perf >= "
            << format_double(target, 2) << "x\n\n";

  TablePrinter table({"UPS Ah", "TES min", "perf (oracle bound)", "$/server",
                      "meets target"});
  std::optional<std::pair<double, std::string>> cheapest;
  for (double ah : {0.25, 0.5, 1.0, 2.0}) {
    for (double tes_min : {6.0, 12.0, 24.0}) {
      DataCenterConfig config;
      config.fleet.pdu_count = 4;
      config.battery_per_server.capacity = Charge::amp_hours(ah);
      config.tes_capacity_minutes = tes_min;
      DataCenter dc(config);
      const OracleResult oracle = oracle_search(dc, trace, 4);
      const double cost = esd_cost_per_server(config);
      const bool ok = oracle.best_performance >= target;
      table.add_row({format_double(ah, 2), format_double(tes_min, 0),
                     format_double(oracle.best_performance, 3),
                     format_double(cost, 2), ok ? "yes" : "no"});
      if (ok && (!cheapest || cost < cheapest->first)) {
        cheapest = {cost, format_double(ah, 2) + " Ah / " +
                              format_double(tes_min, 0) + " min TES"};
      }
    }
  }
  table.print(std::cout);

  if (cheapest) {
    std::cout << "\nCheapest configuration meeting the target: "
              << cheapest->second << " at $"
              << format_double(cheapest->first, 2) << " per server\n";
  } else {
    std::cout << "\nNo swept configuration meets the target — raise the"
                 " storage budget or relax the target.\n";
  }
  return 0;
}
