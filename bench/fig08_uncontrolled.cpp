// Figure 8 — required vs achieved performance on the MS trace:
// (a) uncontrolled chip-level sprinting trips the data-center breaker a few
//     minutes in and the whole facility goes dark;
// (b) Data Center Sprinting (Greedy) sustains the boost safely.
// Also reports the Section VII-A energy-source split (UPS / TES share of
// the additional energy).
#include <iostream>

#include "bench_util.h"
#include "core/datacenter.h"
#include "util/table.h"
#include "workload/ms_trace.h"

namespace {

void print_series(const dcs::core::RunResult& run, const char* label) {
  using namespace dcs;
  std::cout << "\n" << label << " (30 s resolution):\n";
  TablePrinter table({"minute", "required", "achieved", "degree", "phase"});
  const TimeSeries& demand = run.recorder.series("demand");
  const TimeSeries& achieved = run.recorder.series("achieved");
  const TimeSeries& degree = run.recorder.series("degree");
  const TimeSeries& phase = run.recorder.series("phase");
  for (double m = 0.0; m < 30.0; m += 1.0) {
    const Duration t = Duration::minutes(m);
    table.add_row(format_double(m, 1),
                  {demand.at(t), achieved.at(t), degree.at(t), phase.at(t)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "fig08_uncontrolled");
  core::DataCenter dc(bench::bench_config(args));
  const TimeSeries trace = workload::generate_ms_trace();

  std::cout << "=== Figure 8: uncontrolled sprinting vs Data Center Sprinting ===\n";

  const core::RunResult uncontrolled = dc.run(
      trace, nullptr, {.mode = core::Mode::kUncontrolled, .record = true});
  print_series(uncontrolled, "Fig. 8a: uncontrolled chip-level sprinting");
  std::cout << "CB trips at " << to_string(uncontrolled.trip_time)
            << " into the trace (paper: 5 min 20 s); average performance "
            << format_double(uncontrolled.performance_factor, 2) << "x\n";
  bench::maybe_export_csv(args, "fig08a_achieved",
                          uncontrolled.recorder.series("achieved"));

  core::GreedyStrategy greedy;
  const core::RunResult dcs = dc.run(trace, &greedy, {.record = true});
  print_series(dcs, "Fig. 8b: Data Center Sprinting (Greedy)");
  std::cout << "no trip; average performance "
            << format_double(dcs.performance_factor, 2)
            << "x; sprint time " << format_double(dcs.sprint_time.min(), 1)
            << " min\n";
  bench::maybe_export_csv(args, "fig08b_achieved",
                          dcs.recorder.series("achieved"));

  // Section VII-A: energy-source split of the additional energy.
  const Energy pdu_additional = dcs.ups_energy + dcs.pdu_overload_energy;
  const Energy dc_additional =
      dcs.dc_overload_energy + dcs.tes_saved_energy;
  std::cout << "\nAdditional-energy split:\n"
            << "  PDU level: UPS "
            << format_double(100.0 * (dcs.ups_energy / pdu_additional), 1)
            << "% vs CB overload (paper: UPS ~54%)\n"
            << "  DC level:  TES "
            << format_double(
                   100.0 * (dc_additional > Energy::zero()
                                ? dcs.tes_saved_energy / dc_additional
                                : 0.0),
                   1)
            << "% vs CB overload (paper: TES ~13%)\n";
  bench::finish_obs(stream);
  return 0;
}
