// Ablation — available DC-level headroom (the paper sweeps 0-20 % of the
// peak-normal power as the under-provisioning severity, Section VI-A).
//
// The (headroom x trace) grid runs on the src/exp sweep runner; each task
// owns a fresh DataCenter with its own headroom. Bit-identical for any
// thread count.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/oracle.h"
#include "util/table.h"
#include "workload/ms_trace.h"
#include "workload/yahoo_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream =
      bench::obs_setup(args, "ablation_headroom");

  std::cout << "=== Ablation: DC headroom sweep (0-20% of peak normal) ===\n";
  const TimeSeries ms = workload::generate_ms_trace();
  workload::YahooTraceParams yp;
  yp.burst_degree = 3.2;
  yp.burst_duration = Duration::minutes(15);
  const TimeSeries yahoo = workload::generate_yahoo_trace(yp);
  const std::vector<const TimeSeries*> traces = {&ms, &yahoo};

  const std::vector<double> headrooms = {0.00, 0.05, 0.10, 0.15, 0.20};
  exp::SweepSpec spec("ablation_headroom");
  spec.add_axis("headroom_pct",
                std::vector<double>{0.0, 5.0, 10.0, 15.0, 20.0}, 0);
  spec.add_axis("trace", {"MS", "Yahoo"});
  const exp::SweepRun run = exp::run_sweep(
      spec, {"greedy", "oracle"},
      [&](const exp::SweepSpec::Task& task) {
        DataCenterConfig config = bench::bench_config(args);
        config.dc_headroom = headrooms[task.level[0]];
        DataCenter dc(config);
        const TimeSeries& trace = *traces[task.level[1]];
        GreedyStrategy greedy;
        return std::vector<double>{
            dc.run(trace, &greedy).performance_factor,
            oracle_search(dc, trace, 4, /*threads=*/1).best_performance};
      },
      bench::runner_options(args, spec));

  TablePrinter table({"headroom %", "MS greedy", "MS oracle", "Yahoo greedy",
                      "Yahoo oracle"});
  for (std::size_t h = 0; h < headrooms.size(); ++h) {
    // row_value renders nan for slots another shard owns.
    const std::size_t ms_cell = h * traces.size() + 0;
    const std::size_t yahoo_cell = h * traces.size() + 1;
    table.add_row(spec.axes()[0].labels[h],
                  {bench::row_value(run, ms_cell, 0),
                   bench::row_value(run, ms_cell, 1),
                   bench::row_value(run, yahoo_cell, 0),
                   bench::row_value(run, yahoo_cell, 1)});
  }
  table.print(std::cout);

  const exp::SweepSummary summary = exp::aggregate(spec, run);
  bench::maybe_export_sweep(args, spec, run, summary);
  bench::finish_obs(stream);
  std::cerr << "[exp] " << run.rows.size() << " tasks in "
            << format_double(run.wall_seconds, 2) << " s on "
            << run.threads_used << " thread(s)\n";

  std::cout << "\nMore available headroom lets the breakers carry more of"
               " the sprint;\neven 0% headroom sprints on stored energy"
               " alone.\n";
  bench::drain_exit_if_requested();
  return 0;
}
