// Figure 12 (extension) — tail-latency-SLO-driven sprinting on the
// request-level serving layer (src/serving).
//
// Two trade-off curves on the Yahoo burst trace (3.2x for 15 min):
//
//  - p99 vs sprint budget: scale the ESD budget (UPS Ah + TES minutes)
//    from 0.25x to 4x and compare the SLO strategy (sprint onset on
//    p99-violation pressure) against Greedy. More budget -> the sprint
//    covers more of the burst -> the fluid backlog peaks lower -> the run
//    p99 falls monotonically.
//  - admission vs sprinting: sweep the serving layer's admission headroom
//    (admit=1x..4x capacity) under the SLO strategy vs no-sprint. Tight
//    admission sheds requests to protect latency; generous admission
//    queues them and leans on sprinting to make the p99.
//
// Knobs beyond the common set: slo=<ms> (target p99),
// placement=round_robin|jsq, rps=<peak requests/s>, servers=<n>,
// admit=<factor> (budget sweep only — the admission sweep owns that axis).
// Each server is one queue (serving/queue_model.h). A value the serving
// layer or the SLO strategy rejects exits 2 before any run.
//
// Runs on the src/exp sweep runner: rows are bit-identical for any thread
// count, and checkpoint=/shard= make it dispatchable (tools/dispatch_sweep).
// Under trace=<dir> each task exports its recorder channels — including the
// serving_p99_ms / serving_backlog tracks — as Perfetto counter lanes.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/datacenter.h"
#include "core/slo_strategy.h"
#include "obs/decision.h"
#include "serving/serving_layer.h"
#include "util/table.h"
#include "workload/yahoo_trace.h"

namespace {

/// Serving-side counter tracks appended to the physical defaults.
const std::vector<std::string> kServingChannels = {
    "serving_p99_ms", "serving_window_p99_ms", "serving_backlog",
    "serving_dropped",
    // Error-budget tracks (recorded only when the budget is enabled;
    // export_counters skips channels a run did not produce).
    "slo_budget_remaining", "slo_burn_fast", "slo_burn_slow",
    "slo_budget_violations"};

struct TaskOutcome {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double drop_pct = 0.0;
  double sprint_min = 0.0;
  double perf = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  using bench::Kind;
  const Config args = bench::parse_args(
      argc, argv,
      {{"slo", Kind::kNumber}, {"placement"},
       {"rps", Kind::kNumber}, {"servers", Kind::kCount},
       {"admit", Kind::kNumber}});
  const double slo_ms = args.get_double("slo", 250.0);
  serving::ServingParams base_serving;
  base_serving.servers = args.get_count("servers", 8);
  base_serving.peak_rps = args.get_double("rps", 400.0);
  base_serving.placement = args.get_string("placement", "round_robin");
  base_serving.admit_factor = args.get_double("admit", 2.0);
  const SloSprintParams slo_params{.target_p99_s = slo_ms * 1e-3};

  workload::YahooTraceParams yp;
  yp.burst_degree = 3.2;
  yp.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(yp);

  // Every task builds its serving layer and strategy from these values, so
  // one of each, built here, makes their checks before any task runs.
  base_serving.demand = &trace;
  bench::checked(argv[0], args, {"servers", "rps", "placement", "admit"},
                 "serving layer",
                 [&] { (void)serving::ServingLayer(base_serving); });
  bench::checked(argv[0], args, {"slo"}, "SLO strategy",
                 [&] { (void)SloSprintStrategy(slo_params); });
  bench::StreamTraceSinks stream = bench::obs_setup(args, "fig12_slo_sprint");
  const bool tracing = bench::tracing_enabled(args);

  // One task: run `trace` through the controller with the serving layer
  // ticking after each control period; the SLO strategy (when selected)
  // closes the loop from the serving window p99 back into the sprint bound.
  const auto run_task = [&](const DataCenterConfig& config,
                            const std::string& strategy_name,
                            const serving::ServingParams& serving_params,
                            obs::Tracer* tracer) {
    serving::ServingLayer serving(serving_params);
    sim::Recorder serving_recorder;
    SloSprintStrategy slo(slo_params);
    GreedyStrategy greedy;
    ConstantBoundStrategy nosprint(1.0, "nosprint");
    Strategy* strategy = nullptr;
    if (strategy_name == "slo") {
      strategy = &slo;
      serving.set_slo_callback([&slo](const serving::ServingStats& stats) {
        slo.observe_latency(stats.p99_s);
      });
    } else if (strategy_name == "greedy") {
      strategy = &greedy;
    } else {
      strategy = &nosprint;
    }

    DataCenter dc(config);
    RunOptions opts;
    opts.components = {&serving};
    opts.on_step = [&serving](Duration, Duration, const StepResult& step) {
      serving.set_capacity_degree(step.degree);
    };
    std::optional<obs::DecisionLog> decision_log;
    if (tracer != nullptr) {
      opts.tracer = tracer;
      opts.record = true;
      serving.set_recorder(&serving_recorder);
      // One DecisionLog per task over the task's own trace lane: the
      // controller, the SLO latch and the serving layer all emit into it,
      // so `trace_query explain` can chain p99 latch -> sprint onset.
      decision_log.emplace(tracer);
      opts.decisions = &*decision_log;
      slo.set_decision_log(&*decision_log);
      serving.set_decision_log(&*decision_log);
      serving.enable_error_budget(
          serving::ErrorBudgetParams{.target_p99_s = slo_ms * 1e-3});
    }
    const RunResult run = dc.run(trace, strategy, opts);
    if (tracer != nullptr) {
      obs::export_counters(run.recorder, *tracer,
                           {.channels = bench::kDefaultCounterChannels});
      obs::export_counters(serving_recorder, *tracer,
                           {.channels = kServingChannels});
    }
    TaskOutcome out;
    out.p50_ms = serving.latency().p50() * 1e3;
    out.p99_ms = serving.latency().p99() * 1e3;
    out.p999_ms = serving.latency().p999() * 1e3;
    out.drop_pct = serving.drop_fraction() * 100.0;
    out.sprint_min = run.sprint_time.min();
    out.perf = run.performance_factor;
    return out;
  };

  // --- p99 vs sprint budget ----------------------------------------------
  const std::vector<double> budgets = {0.25, 0.5, 1.0, 2.0, 4.0};
  const std::vector<std::string> budget_strategies = {"slo", "greedy"};
  exp::SweepSpec budget_spec("fig12_slo_budget");
  budget_spec.add_axis("budget", budgets, 2);
  budget_spec.add_axis("strategy", budget_strategies);
  std::vector<obs::Tracer> budget_tracers(
      tracing ? budget_spec.tasks().size() : 0);
  const exp::SweepRun budget_run = exp::run_sweep(
      budget_spec,
      {"p50_ms", "p99_ms", "p999_ms", "drop_pct", "sprint_min", "perf"},
      [&](const exp::SweepSpec::Task& task) {
        const double scale = budget_spec.value(task, 0);
        DataCenterConfig config = bench::bench_config(args);
        config.battery_per_server.capacity =
            Charge::amp_hours(0.5 * scale);
        config.tes_capacity_minutes *= scale;
        obs::Tracer* tracer = nullptr;
        if (tracing) {
          tracer = &budget_tracers[task.index];
          tracer->set_lane(static_cast<std::uint32_t>(task.index));
        }
        const TaskOutcome out = run_task(
            config, budget_spec.label(task, 1), base_serving, tracer);
        return std::vector<double>{out.p50_ms,     out.p99_ms, out.p999_ms,
                                   out.drop_pct,   out.sprint_min,
                                   out.perf};
      },
      bench::runner_options(args, budget_spec));

  std::cout << "=== Fig 12a: serving p99 vs ESD sprint budget (Yahoo 3.2x"
               " burst, SLO " << format_double(slo_ms, 0) << " ms, "
            << base_serving.placement
            << ") ===\n";
  TablePrinter budget_table({"budget x  strategy", "p50 ms", "p99 ms",
                             "p999 ms", "drop %", "sprint min", "perf"});
  for (const exp::SweepSpec::Task& task : budget_spec.tasks()) {
    if (budget_run.rows[task.index].empty()) continue;  // other shard's slot
    budget_table.add_row(
        budget_spec.label(task, 0) + "  " + budget_spec.label(task, 1),
        budget_run.rows[task.index]);
  }
  budget_table.print(std::cout);

  // --- admission control vs sprinting --------------------------------------
  const std::vector<double> admits = {1.0, 1.5, 2.0, 3.0, 4.0};
  const std::vector<std::string> admit_strategies = {"slo", "nosprint"};
  exp::SweepSpec admit_spec("fig12_admission");
  admit_spec.add_axis("admit", admits, 2);
  admit_spec.add_axis("strategy", admit_strategies);
  // The admission sweep's lanes start after the budget sweep's so the two
  // grids never share a lane in the merged trace — counter tracks stay
  // per-task step functions and decision ids stay unique per (src, lane).
  const std::uint32_t admit_lane_base =
      static_cast<std::uint32_t>(budget_spec.tasks().size());
  std::vector<obs::Tracer> admit_tracers(
      tracing ? admit_spec.tasks().size() : 0);
  const exp::SweepRun admit_run = exp::run_sweep(
      admit_spec, {"p99_ms", "drop_pct", "sprint_min", "perf"},
      [&](const exp::SweepSpec::Task& task) {
        DataCenterConfig config = bench::bench_config(args);
        serving::ServingParams sp = base_serving;
        sp.admit_factor = admit_spec.value(task, 0);
        obs::Tracer* tracer = nullptr;
        if (tracing) {
          tracer = &admit_tracers[task.index];
          tracer->set_lane(admit_lane_base +
                           static_cast<std::uint32_t>(task.index));
        }
        const TaskOutcome out =
            run_task(config, admit_spec.label(task, 1), sp, tracer);
        return std::vector<double>{out.p99_ms, out.drop_pct, out.sprint_min,
                                   out.perf};
      },
      bench::runner_options(args, admit_spec));

  std::cout << "\n=== Fig 12b: admission headroom vs sprinting (drop"
               " requests or sprint to serve them) ===\n";
  TablePrinter admit_table(
      {"admit x  strategy", "p99 ms", "drop %", "sprint min", "perf"});
  for (const exp::SweepSpec::Task& task : admit_spec.tasks()) {
    if (admit_run.rows[task.index].empty()) continue;  // other shard's slot
    admit_table.add_row(
        admit_spec.label(task, 0) + "  " + admit_spec.label(task, 1),
        admit_run.rows[task.index]);
  }
  admit_table.print(std::cout);

  // Observability tail: merge the per-task lanes in task order (the
  // bit-identity contract) and export.
  obs::Tracer tracer(stream.sink());
  if (tracing) {
    for (const exp::SweepSpec::Task& task : budget_spec.tasks()) {
      tracer.name_lane(obs::Domain::kSim,
                       static_cast<std::uint32_t>(task.index),
                       "budget=" + budget_spec.label(task, 0) + "x/" +
                           budget_spec.label(task, 1));
      tracer.merge_from(std::move(budget_tracers[task.index]));
    }
    for (const exp::SweepSpec::Task& task : admit_spec.tasks()) {
      tracer.name_lane(obs::Domain::kSim,
                       admit_lane_base + static_cast<std::uint32_t>(task.index),
                       "admit=" + admit_spec.label(task, 0) + "x/" +
                           admit_spec.label(task, 1));
      tracer.merge_from(std::move(admit_tracers[task.index]));
    }
  }
  const exp::SweepSummary budget_summary = exp::aggregate(budget_spec, budget_run);
  const exp::SweepSummary admit_summary = exp::aggregate(admit_spec, admit_run);
  bench::maybe_export_sweep(args, budget_spec, budget_run, budget_summary);
  bench::maybe_export_sweep(args, admit_spec, admit_run, admit_summary);
  bench::finish_obs(stream);
  std::cerr << "[exp] " << budget_run.rows.size() + admit_run.rows.size()
            << " tasks in "
            << format_double(budget_run.wall_seconds + admit_run.wall_seconds,
                             2)
            << " s on " << budget_run.threads_used << " thread(s)\n";

  std::cout << "\nExpected: p99 falls monotonically with the ESD budget"
               " under the SLO strategy;\ntight admission trades drops for"
               " latency while sprinting serves both.\n";
  bench::drain_exit_if_requested();
  return 0;
}
