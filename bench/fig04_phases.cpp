// Figure 4 — the three-phase methodology illustration, regenerated from
// simulation: a clean single burst served by the controller, showing when
// each phase is active (T1..T4), how much power flows above the ratings,
// and which source carries it (CB tolerance / UPS / TES relief).
#include <iostream>

#include "bench_util.h"
#include "core/datacenter.h"
#include "util/table.h"
#include "workload/yahoo_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "fig04_phases");
  const DataCenterConfig config = bench::bench_config(args);
  DataCenter dc(config);

  workload::YahooTraceParams p;
  p.burst_degree = 2.4;
  p.burst_duration = Duration::minutes(12);
  const TimeSeries trace = workload::generate_yahoo_trace(p);

  std::cout << "=== Figure 4: the three phases on one 2.4x / 12 min burst ===\n";
  GreedyStrategy greedy;
  const RunResult r = dc.run(trace, &greedy, {.record = true});

  TablePrinter timeline({"minute", "phase", "demand", "degree",
                         "dc load / rated", "UPS MW", "dc CB heat",
                         "TES SoC"});
  const auto& rec = r.recorder;
  const char* phase_names[] = {"normal", "1:CB", "2:UPS", "3:TES", "shutdown"};
  for (double m = 4.0; m <= 20.0; m += 0.5) {
    const Duration t = Duration::minutes(m);
    const int phase = static_cast<int>(rec.series("phase").at(t));
    timeline.add_row({format_double(m, 1), phase_names[phase],
                      format_double(rec.series("demand").at(t), 2),
                      format_double(rec.series("degree").at(t), 2),
                      format_double(rec.series("dc_load_mw").at(t) /
                                        config.dc_rated().mw(),
                                    3),
                      format_double(rec.series("ups_mw").at(t), 3),
                      format_double(rec.series("dc_cb_heat").at(t), 3),
                      format_double(rec.series("tes_soc").at(t), 3)});
  }
  timeline.print(std::cout);

  std::cout << "\nPhase durations (the paper's T1-T2 / T2-T3 / T3-T4):\n"
            << "  phase 1 (CB tolerance only): "
            << to_string(r.phase_time[1]) << "\n"
            << "  phase 2 (UPS assisting):     "
            << to_string(r.phase_time[2]) << "\n"
            << "  phase 3 (TES cooling):       "
            << to_string(r.phase_time[3]) << "\n"
            << "TES activation rule fires at "
            << to_string(config.tes_activation_time())
            << " into the burst (Section V-C).\n";
  bench::finish_obs(stream);
  return 0;
}
