// Ablation — energy-storage sizing: per-server UPS capacity, TES capacity,
// and the no-TES configuration the paper discusses in Section V.
//
// All three grids run on the src/exp sweep runner (one task per sizing
// cell, fresh DataCenter per task), so rows/summary/perf records export
// like every other grid experiment.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/datacenter.h"
#include "util/table.h"
#include "workload/yahoo_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "ablation_esd");

  workload::YahooTraceParams yp;
  yp.burst_degree = 3.2;
  yp.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(yp);

  // --- UPS battery capacity ------------------------------------------------
  const std::vector<double> amp_hours = {0.125, 0.25, 0.5, 1.0, 2.0};
  exp::SweepSpec ups_spec("ablation_esd_ups");
  ups_spec.add_axis("ah", amp_hours, 3);
  const exp::SweepRun ups_run = exp::run_sweep(
      ups_spec, {"perf", "min_soc", "sprint_min"},
      [&](const exp::SweepSpec::Task& task) {
        DataCenterConfig config = bench::bench_config(args);
        config.battery_per_server.capacity =
            Charge::amp_hours(ups_spec.value(task, 0));
        DataCenter dc(config);
        GreedyStrategy greedy;
        const RunResult r = dc.run(trace, &greedy);
        return std::vector<double>{r.performance_factor, r.min_ups_soc,
                                   r.sprint_time.min()};
      },
      bench::runner_options(args, ups_spec));

  std::cout << "=== Ablation: UPS battery capacity (paper default 0.5 Ah"
               " ~ 6 min at peak normal) ===\n";
  TablePrinter ups({"Ah/server", "runtime @55W", "greedy perf", "min SoC",
                    "sprint min"});
  for (std::size_t i = 0; i < amp_hours.size(); ++i) {
    if (ups_run.rows[i].empty()) continue;  // slot owned by another shard
    const DataCenterConfig config = bench::bench_config(args);
    const Duration runtime =
        Charge::amp_hours(amp_hours[i])
            .at_volts(config.battery_per_server.bus_voltage) /
        Power::watts(55.0);
    ups.add_row(format_double(amp_hours[i], 3),
                {runtime.min(), ups_run.rows[i][0], ups_run.rows[i][1],
                 ups_run.rows[i][2]});
  }
  ups.print(std::cout);

  // --- TES capacity --------------------------------------------------------
  const std::vector<double> tes_minutes = {3.0, 6.0, 12.0, 24.0, 48.0};
  exp::SweepSpec tes_spec("ablation_esd_tes");
  tes_spec.add_axis("tes_minutes", tes_minutes, 0);
  const exp::SweepRun tes_run = exp::run_sweep(
      tes_spec, {"perf", "min_tes_soc", "sprint_min"},
      [&](const exp::SweepSpec::Task& task) {
        DataCenterConfig config = bench::bench_config(args);
        config.tes_capacity_minutes = tes_spec.value(task, 0);
        DataCenter dc(config);
        GreedyStrategy greedy;
        const RunResult r = dc.run(trace, &greedy);
        return std::vector<double>{r.performance_factor, r.min_tes_soc,
                                   r.sprint_time.min()};
      },
      bench::runner_options(args, tes_spec));

  std::cout << "\n=== Ablation: TES capacity (paper default 12 min of"
               " peak-normal cooling) ===\n";
  TablePrinter tes({"TES minutes", "greedy perf", "min TES SoC", "sprint min"});
  for (std::size_t i = 0; i < tes_minutes.size(); ++i) {
    if (tes_run.rows[i].empty()) continue;  // slot owned by another shard
    tes.add_row(format_double(tes_minutes[i], 0),
                {tes_run.rows[i][0], tes_run.rows[i][1], tes_run.rows[i][2]});
  }
  tes.print(std::cout);

  // --- with vs without TES -------------------------------------------------
  const std::vector<std::string> tes_configs = {"with TES", "no TES"};
  exp::SweepSpec no_spec("ablation_esd_notes");
  no_spec.add_axis("config", tes_configs);
  const exp::SweepRun no_run = exp::run_sweep(
      no_spec, {"perf", "sprint_min", "peak_room_c"},
      [&](const exp::SweepSpec::Task& task) {
        DataCenterConfig config = bench::bench_config(args);
        config.battery_per_server.capacity = Charge::amp_hours(2.0);
        config.has_tes = task.level[0] == 0;
        workload::YahooTraceParams lp;
        lp.length = Duration::minutes(32);
        lp.burst_degree = 3.2;
        lp.burst_duration = Duration::minutes(24);
        const TimeSeries long_trace = workload::generate_yahoo_trace(lp);
        ConstantBoundStrategy bound(2.4);
        const RunResult r = DataCenter(config).run(long_trace, &bound);
        return std::vector<double>{r.performance_factor, r.sprint_time.min(),
                                   r.peak_room_temperature.c()};
      },
      bench::runner_options(args, no_spec));

  std::cout << "\n=== Ablation: no TES at all (Section V: sprinting still"
               " works, shorter) ===\n";
  TablePrinter t({"config", "perf", "sprint min", "peak room C"});
  for (std::size_t i = 0; i < tes_configs.size(); ++i) {
    if (no_run.rows[i].empty()) continue;  // slot owned by another shard
    t.add_row(tes_configs[i],
              {no_run.rows[i][0], no_run.rows[i][1], no_run.rows[i][2]});
  }
  t.print(std::cout);

  std::size_t tasks = 0;
  double wall = 0.0;
  const std::pair<const exp::SweepSpec*, const exp::SweepRun*> sweeps[] = {
      {&ups_spec, &ups_run}, {&tes_spec, &tes_run}, {&no_spec, &no_run}};
  for (const auto& [spec, run] : sweeps) {
    const exp::SweepSummary summary = exp::aggregate(*spec, *run);
    bench::maybe_export_sweep(args, *spec, *run, summary);
    tasks += run->rows.size();
    wall += run->wall_seconds;
  }
  bench::finish_obs(stream);
  std::cerr << "[exp] " << tasks << " tasks in " << format_double(wall, 2)
            << " s on " << ups_run.threads_used << " thread(s)\n";
  bench::drain_exit_if_requested();
  return 0;
}
