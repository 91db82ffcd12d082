// Outage drill: what happens to a sprinting data center when the utility
// feed stumbles?
//
// Injects a supply disturbance in the middle of a burst and shows the
// paper's Section IV-A safety behaviour: the sprint ends immediately, the
// UPS banks bridge the shortfall, the diesel generator starts, and no
// breaker ever trips.
//
// Usage: outage_drill [dip=0.6] [at_min=8] [dip_min=3] [gen_delay=45]
#include <iostream>

#include "bench_util.h"
#include "core/datacenter.h"
#include "power/generator.h"
#include "util/config.h"
#include "util/table.h"
#include "workload/yahoo_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  using bench::Kind;
  static constexpr bench::Key kKeys[] = {
      {"dip", Kind::kNumber}, {"at_min", Kind::kNumber},
      {"dip_min", Kind::kNumber}, {"gen_delay", Kind::kNumber}};
  const Config args = bench::read_args(argc, argv, kKeys);
  const double dip = args.get_double("dip", 0.6);
  const double at_min = args.get_double("at_min", 8.0);
  const double dip_min = args.get_double("dip_min", 3.0);
  const double gen_delay = args.get_double("gen_delay", 45.0);

  DataCenterConfig config;
  config.fleet.pdu_count = 8;
  DataCenter dc(config);

  workload::YahooTraceParams tp;
  tp.burst_degree = 3.0;
  tp.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(tp);

  const TimeSeries supply =
      bench::checked(argv[0], args, {"at_min", "dip_min"}, "supply trace", [&] {
        TimeSeries dipped;
        dipped.push_back(Duration::zero(), 1.0);
        dipped.push_back(Duration::minutes(at_min), dip);
        dipped.push_back(Duration::minutes(at_min + dip_min), 1.0);
        dipped.push_back(trace.end_time(), 1.0);
        return dipped;
      });

  power::DieselGenerator generator(
      "gen", {.rated = config.dc_rated(),
              .start_delay = Duration::seconds(gen_delay)});

  // The run checks the feed's supply fraction before its first tick.
  GreedyStrategy greedy;
  const RunResult r =
      bench::checked(argv[0], args, {"dip"}, "supply fraction", [&] {
        return dc.run(trace, &greedy,
                      {.record = true,
                       .supply_fraction = &supply,
                       .generator = &generator});
      });

  std::cout << "Burst 3.0x for 15 min; feed dips to "
            << format_double(dip * 100.0, 0) << "% at minute "
            << format_double(at_min, 0) << " for "
            << format_double(dip_min, 0) << " min; generator start delay "
            << format_double(gen_delay, 0) << " s\n\n";

  TablePrinter table({"min", "demand", "achieved", "degree", "supply",
                      "UPS MW", "UPS SoC", "dc CB heat"});
  const auto& rec = r.recorder;
  for (double m = at_min - 3.0; m <= at_min + dip_min + 3.0; m += 0.5) {
    const Duration t = Duration::minutes(m);
    table.add_row(format_double(m, 1),
                  {rec.series("demand").at(t), rec.series("achieved").at(t),
                   rec.series("degree").at(t), rec.series("supply").at(t),
                   rec.series("ups_mw").at(t), rec.series("ups_soc").at(t),
                   rec.series("dc_cb_heat").at(t)},
                  2);
  }
  table.print(std::cout);

  std::cout << "\nResult: " << (r.tripped ? "BREAKER TRIPPED" : "no trips")
            << "; generator " << (generator.running() ? "running" : "off")
            << "; avg performance " << format_double(r.performance_factor, 2)
            << "x\nThe sprint aborts the moment the feed derates"
               " (Section IV-A), the UPS bridges until the\ngenerator"
               " synchronizes, and normal service continues through the"
               " disturbance.\n";
  return 0;
}
