// Ablation — UPS battery lifetime under sprinting (Sections III-B/IV-B/V-D):
// simulate a bursty day, extrapolate the discharge pattern to a month, and
// check it against the cycle-life model's lifetime-neutrality criterion for
// both chemistries.
#include <iostream>

#include "bench_util.h"
#include "core/datacenter.h"
#include "power/lifetime.h"
#include "util/table.h"
#include "workload/ms_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "ablation_lifetime");
  DataCenter dc(bench::bench_config(args));

  // A day of MS-style traffic normalized so the sprint-free capacity is
  // 4 GB/s (the paper's Section V-D example), served greedily.
  workload::MsDayTraceParams dp;
  const TimeSeries day = workload::generate_ms_day_trace(dp).scaled(1.0 / 4.0);
  GreedyStrategy greedy;
  const RunResult r = dc.run(day, &greedy);

  const double events_per_month = static_cast<double>(r.ups_discharge_events) * 30.0;
  // Average depth per event from the equivalent-cycle count.
  const double avg_depth =
      r.ups_discharge_events > 0
          ? r.ups_equivalent_cycles / static_cast<double>(r.ups_discharge_events)
          : 0.0;

  std::cout << "=== UPS wear from one simulated day (extrapolated x30) ===\n"
            << "  discharge events: " << r.ups_discharge_events << "/day -> "
            << format_double(events_per_month, 0) << "/month (paper: ~200)\n"
            << "  average depth:    " << format_double(avg_depth * 100.0, 1)
            << "% (paper: ~26%)\n"
            << "  deepest event:    " << format_double(r.ups_max_depth * 100.0, 1)
            << "%\n"
            << "  sprint time:      " << format_double(r.sprint_time.min(), 1)
            << " min/day, avg perf " << format_double(r.performance_factor, 2)
            << "x\n\n";

  TablePrinter table({"chemistry", "required yrs", "wear yrs @ pattern",
                      "lifetime neutral", "wear yrs @ 10x100%"});
  for (const auto& [name, chem] :
       {std::pair{"LFP", power::Chemistry::kLfp},
        std::pair{"lead-acid", power::Chemistry::kLeadAcid}}) {
    const power::BatteryLifetimeModel model(chem);
    const double depth = std::max(avg_depth, 0.01);
    table.add_row({name,
                   format_double(model.required_service_life().hrs() / 8760.0, 0),
                   format_double(model.wear_years(events_per_month, depth), 1),
                   model.lifetime_neutral(events_per_month, depth) ? "yes" : "no",
                   format_double(model.wear_years(10.0, 1.0), 1)});
  }
  table.print(std::cout);
  std::cout << "\nPaper: LFP handles 10 full discharges/month over its 8-year"
               " life, and the Fig. 1 month's\n~200 bursts at ~26% depth have"
               " no lifetime impact.\n";
  bench::finish_obs(stream);
  return 0;
}
