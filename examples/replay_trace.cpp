// Replay your own workload: load a demand trace from CSV and run Data
// Center Sprinting on it — the ingestion path for real telemetry in place
// of the synthetic stand-ins.
//
// The CSV has two columns "time_s,value". Values may be absolute (requests
// per second, GB/s, ...); pass capacity=<value> to normalize so that
// `capacity` maps to 1.0 (the sprint-free peak). Without trace=..., the
// example writes a sample trace next to the binary and replays it, so it is
// runnable out of the box.
//
// Usage: replay_trace [trace=demand.csv] [capacity=1.0] [pdus=8]
#include <iostream>
#include <string>

#include "bench_util.h"
#include "core/budget_paced_strategy.h"
#include "core/datacenter.h"
#include "core/oracle.h"
#include "util/config.h"
#include "util/table.h"
#include "workload/burst.h"
#include "workload/ms_trace.h"
#include "workload/trace_io.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  using bench::Kind;
  static constexpr bench::Key kKeys[] = {
      {"trace"}, {"capacity", Kind::kNumber}, {"pdus", Kind::kCount}};
  const Config args = bench::read_args(argc, argv, kKeys);

  std::string path = args.get_string("trace", "");
  if (path.empty()) {
    path = "replay_sample_trace.csv";
    workload::save_trace_csv(path, workload::generate_ms_trace());
    std::cout << "(no trace given — wrote and replaying the sample " << path
              << ")\n\n";
  }

  TimeSeries demand = workload::load_trace_csv(path);
  const double capacity = args.get_double("capacity", 1.0);
  if (capacity != 1.0) demand = demand.scaled(1.0 / capacity);

  const workload::BurstStats stats = workload::analyze_bursts(demand);
  std::cout << "Trace: " << format_double(demand.span().min(), 1)
            << " min, peak " << format_double(stats.peak_demand, 2)
            << "x capacity, " << format_double(stats.over_capacity_time.min(), 1)
            << " min over capacity in " << stats.burst_count << " bursts\n\n";
  if (stats.over_capacity_time == Duration::zero()) {
    std::cout << "Nothing exceeds the sprint-free capacity — sprinting would"
                 " never engage. Check the capacity= normalization.\n";
    return 0;
  }

  DataCenterConfig config;
  config.fleet.pdu_count = args.get_count("pdus", 8);
  DataCenter dc = bench::checked(argv[0], args, {"pdus"}, "data center",
                                 [&] { return DataCenter(config); });

  TablePrinter table({"policy", "avg perf", "drop %", "sprint min",
                      "UPS events", "tripped"});
  auto report = [&](const char* label, const RunResult& r) {
    table.add_row(label, {r.performance_factor, r.drop_fraction * 100.0,
                          r.sprint_time.min(),
                          static_cast<double>(r.ups_discharge_events),
                          r.tripped ? 1.0 : 0.0});
  };
  report("no-sprint", dc.run(demand, nullptr, {.mode = Mode::kNoSprint}));
  report("dvfs-capped", dc.run(demand, nullptr, {.mode = Mode::kDvfsCapped}));
  report("core-capped", dc.run(demand, nullptr, {.mode = Mode::kPowerCapped}));
  GreedyStrategy greedy;
  report("DCS greedy", dc.run(demand, &greedy));
  BudgetPacedStrategy planner(demand, config);
  report("DCS budget-paced", dc.run(demand, &planner));
  const OracleResult oracle = oracle_search(dc, demand, 2);
  ConstantBoundStrategy best(oracle.best_bound, "oracle");
  report("DCS oracle", dc.run(demand, &best));
  table.print(std::cout);

  std::cout << "\nPlanner cap " << format_double(planner.planned_cap(), 2)
            << " vs oracle bound " << format_double(oracle.best_bound, 2)
            << "\n";
  return 0;
}
