// Ablation — fault injection and the graceful-degradation ladder: every
// default scenario derates one substrate mid-burst; the controlled modes
// must survive (no trip, no overheat, no watchdog violation) while shedding
// degree, and the uncontrolled baseline shows what "surviving" is worth.
//
// All three sections run on the src/exp sweep runner: the scenario grid
// (11 scenarios x 2 strategies), the uncontrolled baseline, and a 50-seed
// survival sweep over random fault schedules (stable task->seed mapping,
// bit-identical for any thread count).
//
// Under trace=<dir> (or telemetry=<path>) each grid task traces its run
// into its own lane, named <strategy>/<scenario>: fault, phase and ladder
// instants, the decision records `trace_query audit` chains, and the
// default counter tracks (state of charge, breaker trip margin, room
// temperature, degree, chiller draw).
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/datacenter.h"
#include "faults/schedule.h"
#include "obs/decision.h"
#include "util/table.h"
#include "workload/yahoo_trace.h"

namespace {

using namespace dcs;
using namespace dcs::core;
using faults::Fault;
using faults::FaultKind;
using faults::FaultSchedule;
using faults::SensorChannel;

struct Scenario {
  std::string name;
  FaultSchedule schedule;
  /// Optional supply derating paired with the faults (generator scenarios).
  double supply_dip = 1.0;
};

Fault window(FaultKind kind, double start_min, double end_min, double magnitude,
             SensorChannel channel = SensorChannel::kDemand) {
  return Fault{kind, Duration::minutes(start_min), Duration::minutes(end_min),
               magnitude, channel};
}

/// Fault windows sit inside the burst (minutes 5-20 of the Yahoo trace).
std::vector<Scenario> default_scenarios() {
  std::vector<Scenario> out;
  out.push_back({"nominal", {}, 1.0});

  FaultSchedule s;
  s.add(window(FaultKind::kUpsBankOutage, 7, 13, 0.4));
  out.push_back({"ups-outage-40%", s, 1.0});

  s = {};
  s.add(window(FaultKind::kUpsCapacityFade, 6, 20, 0.3));
  out.push_back({"ups-fade-30%", s, 1.0});

  s = {};
  s.add(window(FaultKind::kBreakerDerating, 8, 11, 0.10));
  out.push_back({"pdu-derate-10%", s, 1.0});

  s = {};
  s.add(window(FaultKind::kBreakerNuisanceBias, 7, 12, 0.25));
  out.push_back({"nuisance-bias-0.25", s, 1.0});

  s = {};
  s.add(window(FaultKind::kChillerDegradedCop, 6, 18, 0.35));
  out.push_back({"chiller-cop+35%", s, 1.0});

  s = {};
  s.add(window(FaultKind::kChillerFailure, 9, 13, 0.4));
  out.push_back({"chiller-40%-loss", s, 1.0});

  s = {};
  s.add(window(FaultKind::kTesValveStuck, 8, 16, 1.0));
  out.push_back({"tes-valve-stuck", s, 1.0});

  s = {};
  s.add(window(FaultKind::kGeneratorStartFailure, 0, 30, 1.0));
  out.push_back({"gen-fail+dip-85%", s, 0.85});

  s = {};
  s.add(window(FaultKind::kSensorStale, 7, 12, 1.0, SensorChannel::kDemand));
  out.push_back({"sensor-stale-demand", s, 1.0});

  s = {};
  s.add(window(FaultKind::kSensorNoisy, 6, 18, 0.15, SensorChannel::kDemand));
  out.push_back({"sensor-noisy-15%", s, 1.0});

  return out;
}

struct Outcome {
  bool survived = false;
  RunResult result;
};

/// One isolated scenario run: fresh DataCenter, generator and supply trace
/// per call, so tasks are safe to execute concurrently. A non-null `tracer`
/// is the task's own lane: the run is recorded and traced into it with its
/// decision records, then its default channels follow as counter tracks.
Outcome run_scenario(const DataCenterConfig& config, const TimeSeries& trace,
                     const Scenario& sc, Strategy* strategy, Mode mode,
                     obs::Tracer* tracer = nullptr) {
  DataCenter dc(config);
  RunOptions opts;
  opts.mode = mode;
  std::optional<obs::DecisionLog> decisions;
  if (tracer != nullptr) {
    opts.tracer = tracer;
    opts.record = true;
    decisions.emplace(tracer);
    opts.decisions = &*decisions;
  }
  TimeSeries supply;
  power::DieselGenerator generator(
      "gen", {.rated = config.dc_rated() * 0.5,
              .start_delay = Duration::seconds(45)});
  if (sc.supply_dip < 1.0) {
    supply.push_back(Duration::zero(), 1.0);
    supply.push_back(Duration::minutes(7), sc.supply_dip);
    supply.push_back(Duration::minutes(12), 1.0);
    supply.push_back(trace.end_time(), 1.0);
    opts.supply_fraction = &supply;
    opts.generator = &generator;
  }
  if (!sc.schedule.empty()) opts.faults = &sc.schedule;
  Outcome o;
  o.result = dc.run(trace, strategy, opts);
  if (tracer != nullptr) {
    obs::export_counters(o.result.recorder, *tracer,
                         {.channels = bench::kDefaultCounterChannels});
  }
  o.survived = !o.result.tripped && o.result.watchdog.ok();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Config args =
      bench::parse_args(argc, argv, {{"seeds", bench::Kind::kCount}});
  bench::StreamTraceSinks stream = bench::obs_setup(args, "ablation_faults");
  const bool tracing = bench::tracing_enabled(args);

  workload::YahooTraceParams yp;
  yp.burst_degree = 3.2;
  yp.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(yp);

  const DataCenterConfig config = bench::bench_config(args);
  const std::vector<Scenario> scenarios = default_scenarios();
  const std::vector<std::string> strategy_names = {"greedy", "bound-2.4"};
  const auto make_strategy =
      [](std::size_t level) -> std::unique_ptr<Strategy> {
    if (level == 0) return std::make_unique<GreedyStrategy>();
    return std::make_unique<ConstantBoundStrategy>(2.4);
  };

  // --- Section 1: scenario grid, controlled modes -------------------------
  exp::SweepSpec grid("ablation_faults");
  grid.add_axis("strategy", strategy_names);
  {
    std::vector<std::string> names;
    for (const Scenario& sc : scenarios) names.push_back(sc.name);
    grid.add_axis("scenario", std::move(names));
  }
  // Each grid task owns a Tracer slot (same task-indexed contract as the
  // runner's result rows), so the merged sim-event stream is bit-identical
  // for any thread count.
  std::vector<obs::Tracer> task_tracers(tracing ? grid.tasks().size() : 0);
  const exp::SweepRun grid_run = exp::run_sweep(
      grid, {"survived", "perf", "max_ladder", "watchdog"},
      [&](const exp::SweepSpec::Task& task) {
        obs::Tracer* tracer = nullptr;
        if (tracing) {
          tracer = &task_tracers[task.index];
          tracer->set_lane(static_cast<std::uint32_t>(task.index));
        }
        const auto strategy = make_strategy(task.level[0]);
        const Outcome o = run_scenario(config, trace, scenarios[task.level[1]],
                                       strategy.get(), Mode::kControlled,
                                       tracer);
        return std::vector<double>{
            o.survived ? 1.0 : 0.0, o.result.performance_factor,
            static_cast<double>(o.result.max_degradation),
            static_cast<double>(o.result.watchdog.violations)};
      },
      bench::runner_options(args, grid));

  obs::Tracer tracer(stream.sink());
  if (tracing) {
    for (const exp::SweepSpec::Task& task : grid.tasks()) {
      tracer.name_lane(obs::Domain::kSim,
                       static_cast<std::uint32_t>(task.index),
                       strategy_names[task.level[0]] + "/" +
                           scenarios[task.level[1]].name);
      tracer.merge_from(std::move(task_tracers[task.index]));
    }
  }

  std::cout << "=== Ablation: fault scenarios x strategies (burst 3.2x for"
               " 15 min; survived = no trip, no invariant violation) ===\n";
  TablePrinter table({"scenario", "strategy", "survived", "perf", "retained %",
                      "max ladder", "watchdog"});
  for (std::size_t st = 0; st < strategy_names.size(); ++st) {
    // The nominal (fault-free) cell anchors the "performance retained"
    // column; under sharding it may live in another shard's slot.
    const std::vector<double>& nominal = grid_run.rows[st * scenarios.size()];
    const double base_perf = nominal.empty() ? 0.0 : nominal[1];
    for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
      const std::vector<double>& row = grid_run.rows[st * scenarios.size() + sc];
      if (row.empty()) continue;  // slot owned by another shard
      const double retained =
          base_perf > 0.0 ? 100.0 * row[1] / base_perf : 0.0;
      table.add_row({scenarios[sc].name, strategy_names[st],
                     row[0] > 0.0 ? "yes" : "NO", format_double(row[1], 3),
                     format_double(retained, 1),
                     std::string(to_string(static_cast<DegradationLevel>(
                         static_cast<int>(row[2])))),
                     format_double(row[3], 0)});
    }
  }
  table.print(std::cout);

  // --- Section 2: uncontrolled baseline ----------------------------------
  exp::SweepSpec unc_spec("ablation_faults_uncontrolled");
  {
    std::vector<std::string> names;
    for (const Scenario& sc : scenarios) names.push_back(sc.name);
    unc_spec.add_axis("scenario", std::move(names));
  }
  const exp::SweepRun unc_run = exp::run_sweep(
      unc_spec, {"tripped", "trip_min", "perf"},
      [&](const exp::SweepSpec::Task& task) {
        const Outcome o = run_scenario(config, trace, scenarios[task.level[0]],
                                       nullptr, Mode::kUncontrolled);
        return std::vector<double>{
            o.result.tripped ? 1.0 : 0.0,
            o.result.tripped ? o.result.trip_time.min() : -1.0,
            o.result.performance_factor};
      },
      bench::runner_options(args, unc_spec));

  std::cout << "\n=== Baseline: uncontrolled sprinting under the same"
               " scenarios (trips expected) ===\n";
  TablePrinter unc({"scenario", "tripped", "trip @ min", "perf"});
  std::size_t uncontrolled_trips = 0;
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    const std::vector<double>& row = unc_run.rows[sc];
    if (row.empty()) continue;  // slot owned by another shard
    if (row[0] > 0.0) ++uncontrolled_trips;
    unc.add_row({scenarios[sc].name, row[0] > 0.0 ? "yes" : "no",
                 row[0] > 0.0 ? format_double(row[1], 2) : "-",
                 format_double(row[2], 3)});
  }
  unc.print(std::cout);
  std::cout << "\nuncontrolled trips in " << uncontrolled_trips << "/"
            << scenarios.size() << " scenarios\n";

  // --- Section 3: seeded survival sweep over random fault schedules -------
  const std::size_t seeds = args.get_count("seeds", 50);
  exp::SweepSpec surv("ablation_faults_survival", /*base_seed=*/0x5EEDFA17ULL);
  const std::vector<double> severities = {1.0};
  surv.add_axis("severity", severities, 2);
  surv.set_replicates(seeds);
  const exp::SweepRun surv_run = exp::run_sweep(
      surv, {"survived", "perf", "watchdog"},
      [&](const exp::SweepSpec::Task& task) {
        const FaultSchedule schedule = FaultSchedule::random(
            task.seed, trace.end_time(), surv.value(task, 0));
        Scenario sc{"random", schedule, 1.0};
        ConstantBoundStrategy bound(2.4);
        const Outcome o =
            run_scenario(config, trace, sc, &bound, Mode::kControlled);
        return std::vector<double>{
            o.survived ? 1.0 : 0.0, o.result.performance_factor,
            static_cast<double>(o.result.watchdog.violations)};
      },
      bench::runner_options(args, surv));
  const exp::SweepSummary surv_summary = exp::aggregate(surv, surv_run);

  std::cout << "\n=== Survival sweep: " << seeds
            << " random fault schedules (severity 1.0, bound-2.4) ===\n";
  TablePrinter surv_table({"severity", "survival %", "perf mean", "perf min",
                           "perf p95", "watchdog"});
  for (const exp::CellSummary& cell : surv_summary.cells) {
    surv_table.add_row({cell.labels[0],
                        format_double(100.0 * cell.metrics[0].mean, 1),
                        format_double(cell.metrics[1].mean, 3),
                        format_double(cell.metrics[1].min, 3),
                        format_double(cell.metrics[1].p95, 3),
                        format_double(cell.metrics[2].max, 0)});
  }
  surv_table.print(std::cout);

  const exp::SweepSummary grid_summary = exp::aggregate(grid, grid_run);
  bench::maybe_export_sweep(args, grid, grid_run, grid_summary);
  bench::maybe_export_sweep(args, surv, surv_run, surv_summary);
  bench::finish_obs(stream);
  std::cerr << "[exp] "
            << grid_run.rows.size() + unc_run.rows.size() +
                   surv_run.rows.size()
            << " tasks in "
            << format_double(grid_run.wall_seconds + unc_run.wall_seconds +
                                 surv_run.wall_seconds,
                             2)
            << " s on " << grid_run.threads_used << " thread(s)\n";
  bench::drain_exit_if_requested();
  return 0;
}
