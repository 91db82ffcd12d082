// Figure 1 — the day-scale MS-style traffic trace ("aggregated traffic rate
// of 1,500 servers"), demonstrating that demand is bursty even for
// throughput-oriented workloads. Prints hourly statistics of the synthetic
// stand-in plus the burstiness profile the paper's argument relies on.
//
// Under trace=<dir> (or telemetry=<path>) it additionally runs the
// controlled data center over the full day and traces it, with its decision
// records — per-tick counter tracks for a 24 h run are the motivating
// workload for the bounded-memory streaming sinks.
#include <iostream>

#include "bench_util.h"
#include "core/datacenter.h"
#include "core/strategy.h"
#include "obs/decision.h"
#include "util/table.h"
#include "workload/burst.h"
#include "workload/ms_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "fig01_ms_day_trace");

  std::cout << "=== Figure 1: MS-style day trace (synthetic stand-in) ===\n";
  const TimeSeries trace = workload::generate_ms_day_trace();
  bench::maybe_export_csv(args, "fig01_ms_day_trace", trace);

  TablePrinter hourly({"hour", "mean GB/s", "min GB/s", "max GB/s"});
  for (int h = 0; h < 24; ++h) {
    const TimeSeries slice =
        trace.slice(Duration::hours(h), Duration::hours(h + 1));
    hourly.add_row(std::to_string(h),
                   {slice.time_weighted_mean(), slice.min_value(),
                    slice.max_value()},
                   2);
  }
  hourly.print(std::cout);

  // Burstiness relative to a 4 GB/s sprint-free capacity (the paper's
  // Section V-D revenue example).
  const workload::BurstStats stats =
      workload::analyze_bursts(trace.scaled(1.0 / 4.0));
  std::cout << "\nRelative to a 4 GB/s capacity:\n"
            << "  peak demand        " << format_double(stats.peak_demand, 2)
            << "x capacity (paper: >2x; trace peak >9 GB/s)\n"
            << "  over-capacity time "
            << format_double(stats.over_capacity_time.min(), 1) << " min/day\n"
            << "  burst episodes     " << stats.burst_count
            << " per day (paper: ~200 bursts/month ~ 6-7/day)\n";

  // Opt-in day-long controlled run with counter tracks (the streaming
  // sinks keep peak memory bounded regardless of trace length).
  if (bench::tracing_enabled(args)) {
    obs::Tracer tracer(stream.sink());
    tracer.name_lane(obs::Domain::kSim, 0, "greedy/day-trace");
    obs::DecisionLog decisions(&tracer);

    core::DataCenter dc(bench::bench_config(args));
    core::GreedyStrategy greedy;
    core::RunOptions opts;
    opts.record = true;
    opts.tracer = &tracer;
    opts.decisions = &decisions;
    const core::RunResult day_run =
        dc.run(trace.scaled(1.0 / 4.0), &greedy, opts);
    obs::export_counters(day_run.recorder, tracer,
                         {.channels = bench::kDefaultCounterChannels});
    std::cout << "\nDay-long controlled run: performance factor "
              << format_double(day_run.performance_factor, 3) << ", "
              << tracer.count(obs::Domain::kSim) << " sim trace events\n";
  }
  bench::finish_obs(stream);
  return 0;
}
