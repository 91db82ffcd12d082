// Figure 9 — average performance of the four sprinting-degree strategies on
// the MS trace as a function of the estimation error. Greedy and Oracle are
// error-independent; Prediction perturbs the predicted burst duration and
// Heuristic the estimated best average sprinting degree.
//
// The error grid runs on the src/exp sweep runner (threads=<n> to pin the
// worker count); results are bit-identical for any thread count.
//
// Observability: under trace=<dir> (or telemetry=<path>) each grid task
// traces its Prediction run (phase-transition instants plus recorder
// counter tracks: state of charge, breaker trip margin, room temperature,
// degree, chiller draw) into its own lane, and the lanes merge in task
// order into the bounded-memory streaming sinks. faults=1 injects a
// canonical mid-burst fault pair (UPS bank outage + degraded chiller) so
// the traced trajectories show the degradation ladder at work.
#include <iostream>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "core/heuristic_strategy.h"
#include "obs/decision.h"
#include "core/oracle.h"
#include "core/prediction_strategy.h"
#include "faults/schedule.h"
#include "util/table.h"
#include "workload/ms_trace.h"
#include "workload/predictor.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  const Config args =
      bench::parse_args(argc, argv, {{"faults", bench::Kind::kCount}});
  const std::size_t threads = bench::bench_threads(args);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "fig09_strategies");
  const bool tracing = bench::tracing_enabled(args);
  const bool faulted = args.get_count("faults", 0) != 0;
  const DataCenter dc(bench::bench_config(args));
  const TimeSeries trace = workload::generate_ms_trace();

  // Canonical mid-burst faults (the MS trace's over-capacity window spans
  // most of the 30-minute cut): a 40% UPS bank outage overlapping a 35%
  // chiller COP degradation.
  faults::FaultSchedule fault_schedule;
  if (faulted) {
    fault_schedule.add(faults::Fault{faults::FaultKind::kUpsBankOutage,
                                     Duration::minutes(10),
                                     Duration::minutes(16), 0.4,
                                     faults::SensorChannel::kDemand});
    fault_schedule.add(faults::Fault{faults::FaultKind::kChillerDegradedCop,
                                     Duration::minutes(8),
                                     Duration::minutes(20), 0.35,
                                     faults::SensorChannel::kDemand});
  }

  std::cout << "=== Figure 9: strategies vs estimation error (MS trace) ===\n";

  // The Oracle's exhaustive search, and the upper-bound table it produces
  // for the Prediction strategy.
  const std::vector<Duration> durations = {
      Duration::minutes(1), Duration::minutes(5), Duration::minutes(10),
      Duration::minutes(15), Duration::minutes(25)};
  const std::vector<double> degrees = {1.5, 2.0, 2.6, 3.0, 3.6};
  const UpperBoundTable table = build_upper_bound_table(
      dc, durations, degrees, workload::YahooTraceParams{}, 4, threads);

  const OracleResult oracle = oracle_search(dc, trace, 2, threads);
  RunResult oracle_run;
  RunResult greedy_run;
  {
    DataCenter run_dc(dc.config());
    ConstantBoundStrategy oracle_strategy(oracle.best_bound, "oracle");
    oracle_run = run_dc.run(trace, &oracle_strategy);
    GreedyStrategy greedy;
    greedy_run = run_dc.run(trace, &greedy);
  }

  const workload::BurstTruth truth = workload::measure_burst_truth(trace);
  const double budget = dc.budget_degree_seconds();

  std::cout << "real burst duration " << format_double(truth.duration.min(), 1)
            << " min; oracle bound " << format_double(oracle.best_bound, 2)
            << "; oracle avg sprint degree "
            << format_double(oracle_run.avg_sprint_degree, 2) << "\n\n";

  std::vector<double> errors;
  std::vector<double> error_pct;
  for (double err = -1.0; err <= 1.0 + 1e-9; err += 0.2) {
    errors.push_back(err);
    error_pct.push_back(err * 100.0);
  }

  exp::SweepSpec spec("fig09_strategies");
  spec.add_axis("error_pct", error_pct, 0);
  // Each grid task owns a Tracer slot (same task-indexed contract as the
  // runner's result rows), so the merged sim-event stream is bit-identical
  // for any thread count.
  std::vector<obs::Tracer> task_tracers(tracing ? spec.tasks().size() : 0);
  const exp::SweepRun run = exp::run_sweep(
      spec, {"greedy", "prediction", "heuristic", "oracle"},
      [&](const exp::SweepSpec::Task& task) {
        const double err = errors[task.level[0]];
        DataCenter task_dc(dc.config());
        const workload::ErrorfulForecast forecast(truth, err);
        PredictionStrategy prediction(forecast.predicted_duration(), &table);
        HeuristicStrategy heuristic(
            forecast.apply(oracle_run.avg_sprint_degree), budget);
        RunOptions opts;
        if (faulted) opts.faults = &fault_schedule;
        std::optional<obs::DecisionLog> decision_log;
        if (tracing) {
          opts.tracer = &task_tracers[task.index];
          opts.tracer->set_lane(static_cast<std::uint32_t>(task.index));
          opts.record = true;
          // Decision provenance rides the task's own trace lane, so the
          // merged decision stream shares the bit-identity contract.
          decision_log.emplace(opts.tracer);
          opts.decisions = &*decision_log;
        }
        const RunResult prediction_run = task_dc.run(trace, &prediction, opts);
        if (tracing) {
          // Counter tracks next to the phase instants the run just traced.
          obs::export_counters(prediction_run.recorder, *opts.tracer,
                               {.channels = bench::kDefaultCounterChannels});
        }
        RunOptions heuristic_opts;
        if (faulted) heuristic_opts.faults = &fault_schedule;
        return std::vector<double>{
            greedy_run.performance_factor, prediction_run.performance_factor,
            task_dc.run(trace, &heuristic, heuristic_opts).performance_factor,
            oracle.best_performance};
      },
      bench::runner_options(args, spec));

  obs::Tracer tracer(stream.sink());
  if (tracing) {
    for (const exp::SweepSpec::Task& task : spec.tasks()) {
      tracer.name_lane(obs::Domain::kSim,
                       static_cast<std::uint32_t>(task.index),
                       "prediction/err=" + spec.label(task, 0) + "%");
      tracer.merge_from(std::move(task_tracers[task.index]));
    }
  }

  TablePrinter table_out(
      {"error %", "Greedy", "Prediction", "Heuristic", "Oracle"});
  for (std::size_t i = 0; i < run.rows.size(); ++i) {
    if (run.rows[i].empty()) continue;  // slot owned by another shard
    table_out.add_row(spec.axes()[0].labels[i], run.rows[i]);
  }
  table_out.print(std::cout);

  const exp::SweepSummary summary = exp::aggregate(spec, run);
  bench::maybe_export_sweep(args, spec, run, summary);
  bench::finish_obs(stream);
  std::cerr << "[exp] " << run.rows.size() << " tasks in "
            << format_double(run.wall_seconds, 2) << " s on "
            << run.threads_used << " thread(s)\n";

  std::cout << "\nPaper: overall band 1.62-1.76; Prediction/Heuristic near"
               " Oracle at zero error;\nunderestimated duration or"
               " overestimated degree degrades toward Greedy.\n";
  bench::drain_exit_if_requested();
  return 0;
}
