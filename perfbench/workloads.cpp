// The three benchmark workloads (perfbench.h). Each mirrors the figure
// bench it is shaped after: strategies_909 is fig09, serving_slo is fig12,
// day_traced is fig01's traced day with faults and decisions on.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "bench_util.h"
#include "core/datacenter.h"
#include "core/heuristic_strategy.h"
#include "core/oracle.h"
#include "core/prediction_strategy.h"
#include "core/slo_strategy.h"
#include "core/strategy.h"
#include "exp/runner.h"
#include "faults/schedule.h"
#include "obs/counters.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "serving/serving_layer.h"
#include "sim/component.h"
#include "workload/ms_trace.h"
#include "workload/predictor.h"
#include "workload/yahoo_trace.h"

namespace perfbench {
namespace {

using namespace dcs;
namespace fs = std::filesystem;

/// Set-up repetitions per pass, timed as one block. A set-up takes a
/// fraction of a millisecond, too short to time alone against cache state
/// and timer jitter, so a pass reports the block's mean.
constexpr int kSetupReps = 20;
/// One-tick runs whose median is core.run_fixed_us.
constexpr int kFixedReps = 25;

/// serving_slo's offered load: at this rate and server count serving is
/// nearly all of each run (the controller costs a few ms of a task).
constexpr double kServingRps = 500.0;
constexpr std::size_t kServingServers = 8;
constexpr double kSloMs = 250.0;

/// day_traced's FaultSchedule::random severity: a mid-envelope draw, so
/// the degradation ladder acts while a controlled run still rides through.
constexpr double kFaultSeverity = 0.5;

/// One seed stream per generator the benchmark seed feeds.
enum SeedStream : std::uint64_t {
  kMsTraceSeed,
  kYahooTraceSeed,
  kTableTraceSeed,
  kDayTraceSeed,
  kFaultScheduleSeed,
  kFaultNoiseSeed,
  kServingSeed,
};

core::DataCenterConfig facility(std::size_t pdus) {
  Config args;
  args.set("pdus", std::to_string(pdus));
  return bench::bench_config(args);
}

std::size_t ticks_of(const TimeSeries& demand,
                     const core::DataCenterConfig& config) {
  return static_cast<std::size_t>(
      std::llround(demand.end_time().sec() / config.control_period.sec()));
}

/// The checks every benchmark-issued run must pass (all runs are in
/// controlled mode); empty when it passes.
std::string run_failure(const core::RunResult& r) {
  if (r.tripped) return "breaker tripped";
  if (!r.watchdog.ok()) return "watchdog: " + r.watchdog.first_message;
  for (const double v :
       {r.performance_factor, r.avg_achieved, r.avg_achieved_nosprint,
        r.drop_fraction, r.avg_sprint_degree, r.min_ups_soc, r.min_tes_soc}) {
    if (!std::isfinite(v)) return "non-finite result";
  }
  return {};
}

void check_run(const core::RunResult& r, const std::string& what,
               PassResult& out) {
  ++out.attempted;
  if (std::string failure = run_failure(r); !failure.empty()) {
    out.failures.push_back(what + ": " + failure);
  }
}

void digest_run(Digest& d, const core::RunResult& r) {
  for (const double v :
       {r.avg_achieved, r.avg_achieved_nosprint, r.performance_factor,
        r.drop_fraction, r.avg_sprint_degree, r.sprint_time.sec(),
        r.ups_energy.j(), r.tes_saved_energy.j(), r.pdu_overload_energy.j(),
        r.dc_overload_energy.j(), r.peak_room_temperature.c(), r.min_ups_soc,
        r.min_tes_soc, r.ups_equivalent_cycles}) {
    d.add(v);
  }
  for (const Duration t : r.phase_time) d.add(t.sec());
  for (const Duration t : r.degradation_time) d.add(t.sec());
  d.add(static_cast<std::uint64_t>(r.tripped));
  d.add(static_cast<std::uint64_t>(r.watchdog.violations));
  d.add(static_cast<std::uint64_t>(r.ups_discharge_events));
  d.add(static_cast<std::uint64_t>(r.max_degradation));
}

/// DataCenter::run, timed; the time also becomes a core.run span.
core::RunResult timed_run(core::DataCenter& dc, const TimeSeries& demand,
                          core::Strategy* strategy,
                          const core::RunOptions& options, SpanLog& spans,
                          int parent, double& ms) {
  const double start = now_us();
  core::RunResult result = dc.run(demand, strategy, options);
  const double end = now_us();
  spans.add("core.run", start, end, parent);
  ms = (end - start) * 1e-3;
  return result;
}

/// core.run_fixed_us: median host time of a one-control-period run, i.e.
/// plant build, controller construction and one step.
double run_fixed_us(core::DataCenter& dc, const TimeSeries& demand,
                    PassResult& out) {
  const TimeSeries slice =
      demand.slice(Duration::zero(), dc.config().control_period);
  core::GreedyStrategy greedy;
  std::vector<double> us;
  for (int i = 0; i < kFixedReps; ++i) {
    const double start = now_us();
    const core::RunResult r = dc.run(slice, &greedy);
    us.push_back(now_us() - start);
    check_run(r, "one-tick run", out);
  }
  return median(us);
}

/// Times kSetupReps repetitions of a workload's set-up as one block and
/// records their mean; `step(span)` runs one, nesting its own spans under
/// `span`. The last repetition's outputs feed the pass.
template <class Step>
void timed_setup(SpanLog& spans, int root, PassResult& out, Step&& step) {
  const int id = spans.open("setup", root);
  const double start = now_us();
  for (int rep = 0; rep < kSetupReps; ++rep) step(id);
  out.setup_s = (now_us() - start) * 1e-6 / kSetupReps;
  spans.close(id);
}

double span_median_ms(const std::vector<Span>& spans, std::string_view name) {
  return median(span_durations(spans, name)) * 1e-3;
}

double span_total_ms(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const double us : span_durations(spans, name)) total += us;
  return total * 1e-3;
}

/// exp.sweep_ms, exp.task_ms and exp.parallel_eff from the pass's
/// exp.run_sweep and exp.task spans.
void add_sweep_layers(const std::vector<Span>& spans, std::size_t threads,
                      PassResult& out) {
  const double sweep_ms = span_total_ms(spans, "exp.run_sweep");
  const double task_ms = span_total_ms(spans, "exp.task");
  out.layers["exp.sweep_ms"] = sweep_ms;
  out.layers["exp.task_ms"] = task_ms;
  out.layers["exp.parallel_eff"] =
      task_ms / (sweep_ms * static_cast<double>(threads));
}

// ------------------------------------------------------------ strategies_909

class Strategies final : public Workload {
 public:
  explicit Strategies(const Settings& settings)
      : s_(settings), config_(facility(settings.pdus)) {
    if (s_.tiny) {
      durations_ = {Duration::minutes(5), Duration::minutes(15)};
      degrees_ = {2.0, 3.0};
      errors_ = {-0.4, 0.0, 0.4};
    } else {
      durations_ = {Duration::minutes(1), Duration::minutes(5),
                    Duration::minutes(10), Duration::minutes(15),
                    Duration::minutes(25)};
      degrees_ = {1.5, 2.0, 2.6, 3.0, 3.6};
      for (int i = -5; i <= 5; ++i) errors_.push_back(0.2 * i);
    }
  }

  PassResult pass(SpanLog& spans, bool traced) override {
    PassResult out;
    const int root = spans.open("pass", -1);
    TimeSeries trace;
    std::optional<core::DataCenter> dc;
    timed_setup(spans, root, out, [&](int setup) {
      {
        const ScopedSpan gen(spans, "workload.gen", setup);
        workload::MsTraceParams params;
        params.seed = derive_seed(s_.seed, kMsTraceSeed);
        trace = workload::generate_ms_trace(params);
      }
      const ScopedSpan init(spans, "core.dc_init", setup);
      dc.emplace(config_);
    });

    const double start = now_us();
    workload::YahooTraceParams table_trace;
    table_trace.seed = derive_seed(s_.seed, kTableTraceSeed);
    const core::UpperBoundTable table = [&] {
      const ScopedSpan span(spans, "core.build_upper_bound_table", root);
      return core::build_upper_bound_table(*dc, durations_, degrees_,
                                           table_trace, 4, s_.workers);
    }();
    core::OracleResult oracle;
    {
      const ScopedSpan span(spans, "core.oracle_search", root);
      oracle = core::oracle_search(*dc, trace, 2, s_.workers);
    }
    Digest digest;
    for (std::size_t i = 0; i < durations_.size(); ++i) {
      for (std::size_t j = 0; j < degrees_.size(); ++j) {
        digest.add(table.bound_at(i, j));
      }
    }
    digest.add(oracle.best_bound);
    digest.add(oracle.best_performance);
    for (const auto& [bound, perf] : oracle.sweep) {
      digest.add(bound);
      digest.add(perf);
    }
    const Grid grid =
        run_grid(*dc, trace, table, oracle, spans, root, out, &digest);
    out.wall_s = (now_us() - start) * 1e-6;
    spans.close(root);
    out.digest = digest.value();
    out.layers["paper_gap"] = paper_gap(grid.factors);
    if (!traced) return out;

    // Attribution extras, outside the pass wall time: the fixed cost of a
    // run, and the same runs at 2 PDUs for core.pdu_scale.
    const double fixed_us = run_fixed_us(*dc, trace, out);
    core::DataCenter small(facility(2));
    const double small_fixed_us = run_fixed_us(small, trace, out);
    SpanLog quiet(false);
    const Grid small_grid =
        run_grid(small, trace, table, oracle, quiet, -1, out, nullptr);
    const double tick_ns = grid.tick_ns(fixed_us);
    const std::vector<Span> all = spans.spans();
    out.layers.insert({
        {"workload.gen_ms", span_median_ms(all, "workload.gen")},
        {"core.dc_init_us", span_median_ms(all, "core.dc_init") * 1e3},
        {"core.run_fixed_us", fixed_us},
        {"core.tick_ns", tick_ns},
        {"core.pdu_scale", tick_ns / small_grid.tick_ns(small_fixed_us)},
        {"core.ubt_ms", span_total_ms(all, "core.build_upper_bound_table")},
        {"core.oracle_ms", span_total_ms(all, "core.oracle_search")},
        {"core.runs", static_cast<double>(grid.runs)},
        {"sim.ticks", static_cast<double>(grid.ticks)},
    });
    add_sweep_layers(all, grid.threads, out);
    return out;
  }

 private:
  struct Grid {
    std::vector<double> factors;  // every performance factor of the grid
    double run_us = 0.0;
    std::size_t runs = 0;
    std::size_t ticks = 0;
    std::size_t threads = 1;

    [[nodiscard]] double tick_ns(double fixed_us) const {
      return 1e3 * (run_us - static_cast<double>(runs) * fixed_us) /
             static_cast<double>(ticks);
    }
  };

  struct Slot {
    core::RunResult prediction;
    core::RunResult heuristic;
    double prediction_ms = 0.0;
    double heuristic_ms = 0.0;
  };

  /// fig09's runs: the Oracle and Greedy runs, then the estimation-error
  /// grid of Prediction and Heuristic runs on the sweep runner.
  Grid run_grid(core::DataCenter& dc, const TimeSeries& trace,
                const core::UpperBoundTable& table,
                const core::OracleResult& oracle, SpanLog& spans, int parent,
                PassResult& out, Digest* digest) const {
    Grid grid;
    const std::size_t ticks = ticks_of(trace, dc.config());
    const auto record = [&](const core::RunResult& r, double ms,
                            const std::string& what) {
      check_run(r, what, out);
      if (digest != nullptr) {
        digest_run(*digest, r);
        out.run_ms.push_back(ms);
      }
      grid.run_us += ms * 1e3;
      ++grid.runs;
      grid.ticks += ticks;
    };
    core::ConstantBoundStrategy oracle_strategy(oracle.best_bound, "oracle");
    core::GreedyStrategy greedy;
    double ms = 0.0;
    const core::RunResult oracle_run =
        timed_run(dc, trace, &oracle_strategy, {}, spans, parent, ms);
    record(oracle_run, ms, "oracle run");
    const core::RunResult greedy_run =
        timed_run(dc, trace, &greedy, {}, spans, parent, ms);
    record(greedy_run, ms, "greedy run");
    const workload::BurstTruth truth = workload::measure_burst_truth(trace);
    const double budget = dc.budget_degree_seconds();

    std::vector<double> error_pct;
    for (const double e : errors_) error_pct.push_back(e * 100.0);
    exp::SweepSpec spec("perfbench_strategies");
    spec.add_axis("error_pct", error_pct, 0);
    std::vector<Slot> slots(spec.task_count());
    exp::RunnerOptions runner;
    runner.threads = s_.workers;
    const int sweep_id = spans.open("exp.run_sweep", parent);
    const exp::SweepRun run = exp::run_sweep(
        spec, {"greedy", "prediction", "heuristic", "oracle"},
        [&](const exp::SweepSpec::Task& task) {
          const ScopedSpan task_span(spans, "exp.task", sweep_id);
          Slot& slot = slots[task.index];
          core::DataCenter task_dc(dc.config());
          const workload::ErrorfulForecast forecast(truth,
                                                    errors_[task.level[0]]);
          core::PredictionStrategy prediction(forecast.predicted_duration(),
                                              &table);
          core::HeuristicStrategy heuristic(
              forecast.apply(oracle_run.avg_sprint_degree), budget);
          slot.prediction = timed_run(task_dc, trace, &prediction, {}, spans,
                                      task_span.id(), slot.prediction_ms);
          slot.heuristic = timed_run(task_dc, trace, &heuristic, {}, spans,
                                     task_span.id(), slot.heuristic_ms);
          return std::vector<double>{
              greedy_run.performance_factor,
              slot.prediction.performance_factor,
              slot.heuristic.performance_factor, oracle.best_performance};
        },
        runner);
    spans.close(sweep_id);
    grid.threads = run.threads_used;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::string label = "error " + spec.axes()[0].labels[i] + "%";
      record(slots[i].prediction, slots[i].prediction_ms,
             label + " prediction run");
      record(slots[i].heuristic, slots[i].heuristic_ms,
             label + " heuristic run");
      for (const double factor : run.rows[i]) {
        grid.factors.push_back(factor);
        if (digest != nullptr) digest->add(factor);
      }
    }
    return grid;
  }

  Settings s_;
  core::DataCenterConfig config_;
  std::vector<Duration> durations_;
  std::vector<double> degrees_;
  std::vector<double> errors_;
};

// --------------------------------------------------------------- serving_slo

/// Brackets a component in the engine's per-tick order: the opening probe
/// stamps the clock, the closing one adds the time since. A probe declines
/// engine span skipping (the Component default), so probes only bracket
/// components that decline it already, like ServingLayer.
struct ProbeClock {
  std::chrono::steady_clock::time_point opened;
  std::chrono::nanoseconds total{0};
};

class Probe final : public sim::Component {
 public:
  Probe(ProbeClock& clock, bool opens) : clock_(clock), opens_(opens) {}
  void tick(Duration, Duration) override {
    const auto now = std::chrono::steady_clock::now();
    if (opens_) {
      clock_.opened = now;
    } else {
      clock_.total += now - clock_.opened;
    }
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return opens_ ? "perfbench-probe-open" : "perfbench-probe-close";
  }

 private:
  ProbeClock& clock_;
  bool opens_;
};

class Serving final : public Workload {
 public:
  explicit Serving(const Settings& settings)
      : s_(settings), config_(facility(settings.pdus)) {
    base_.servers = s_.tiny ? 4 : kServingServers;
    base_.peak_rps = s_.tiny ? 200.0 : kServingRps;
    base_.seed = derive_seed(s_.seed, kServingSeed);
    base_.queue_model = "mg1";
    base_.admit_factor = 2.0;
    budgets_ = s_.tiny ? std::vector<double>{0.5, 4.0}
                       : std::vector<double>{0.25, 0.5, 1.0, 2.0, 4.0};
    admits_ = s_.tiny ? std::vector<double>{1.0, 2.0}
                      : std::vector<double>{1.0, 1.5, 2.0, 3.0, 4.0};
  }

  PassResult pass(SpanLog& spans, bool traced) override {
    PassResult out;
    const int root = spans.open("pass", -1);
    TimeSeries trace;
    std::optional<core::DataCenter> dc;
    timed_setup(spans, root, out, [&](int setup) {
      {
        const ScopedSpan gen(spans, "workload.gen", setup);
        workload::YahooTraceParams params;
        params.burst_degree = 3.2;
        params.burst_duration = Duration::minutes(15);
        params.seed = derive_seed(s_.seed, kYahooTraceSeed);
        trace = workload::generate_yahoo_trace(params);
      }
      const ScopedSpan init(spans, "core.dc_init", setup);
      dc.emplace(config_);
    });

    const double start = now_us();
    Totals totals;
    // p99 vs ESD budget, SLO strategy vs Greedy (fig12a).
    exp::SweepSpec budget_spec("perfbench_serving_budget");
    budget_spec.add_axis("placement", placements_);
    budget_spec.add_axis("budget", budgets_, 2);
    budget_spec.add_axis("strategy", {"slo", "greedy"});
    const std::vector<Outcome> budget_rows = run_grid(
        budget_spec, trace, traced, spans, root, totals,
        [&](const exp::SweepSpec::Task& task, serving::ServingParams& params,
            core::DataCenterConfig& config) {
          params.placement = budget_spec.label(task, 0);
          const double scale = budget_spec.value(task, 1);
          config.battery_per_server.capacity = Charge::amp_hours(0.5 * scale);
          config.tes_capacity_minutes *= scale;
          return budget_spec.label(task, 2);
        });
    // Admission headroom, SLO strategy vs no sprinting (fig12b).
    exp::SweepSpec admit_spec("perfbench_serving_admission");
    admit_spec.add_axis("placement", placements_);
    admit_spec.add_axis("admit", admits_, 2);
    admit_spec.add_axis("strategy", {"slo", "nosprint"});
    const std::vector<Outcome> admit_rows = run_grid(
        admit_spec, trace, traced, spans, root, totals,
        [&](const exp::SweepSpec::Task& task, serving::ServingParams& params,
            core::DataCenterConfig&) {
          params.placement = admit_spec.label(task, 0);
          params.admit_factor = admit_spec.value(task, 1);
          return admit_spec.label(task, 2);
        });
    out.wall_s = (now_us() - start) * 1e-6;
    spans.close(root);

    Digest digest;
    for (const std::vector<Outcome>* rows : {&budget_rows, &admit_rows}) {
      for (const Outcome& o : *rows) {
        check_run(o.run, o.label, out);
        digest_run(digest, o.run);
        for (const double v : {o.p50_ms, o.p99_ms, o.p999_ms, o.drop_pct}) {
          digest.add(v);
        }
        digest.add(static_cast<std::uint64_t>(o.offered));
        out.run_ms.push_back(o.run_ms);
      }
    }
    out.digest = digest.value();
    check_fig12(budget_rows, admit_rows, out);
    if (!traced) return out;

    const double fixed_us = run_fixed_us(*dc, trace, out);
    const std::vector<Span> all = spans.spans();
    const double ticks = static_cast<double>(totals.ticks);
    const double offered = static_cast<double>(totals.offered);
    out.layers.insert({
        {"workload.gen_ms", span_median_ms(all, "workload.gen")},
        {"core.dc_init_us", span_median_ms(all, "core.dc_init") * 1e3},
        {"core.run_fixed_us", fixed_us},
        {"core.tick_ns",
         1e3 *
             (totals.run_us - totals.serving_us -
              static_cast<double>(totals.runs) * fixed_us) /
             ticks},
        {"core.runs", static_cast<double>(totals.runs)},
        {"sim.ticks", ticks},
        {"serving.tick_us", totals.serving_us / ticks},
        {"serving.ns_per_req", 1e3 * totals.serving_us / offered},
        {"serving.requests", offered},
        {"serving.admit_ratio",
         (offered - static_cast<double>(totals.dropped)) / offered},
    });
    add_sweep_layers(all, s_.workers, out);
    return out;
  }

 private:
  struct Outcome {
    std::string label;
    std::string strategy;
    std::string placement;
    double level = 0.0;  // budget or admission factor
    core::RunResult run;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double drop_pct = 0.0;
    double run_ms = 0.0;
    double serving_us = 0.0;
    std::size_t offered = 0;
    std::size_t dropped = 0;
  };

  struct Totals {
    double run_us = 0.0;
    double serving_us = 0.0;
    std::size_t runs = 0;
    std::size_t ticks = 0;
    std::size_t offered = 0;
    std::size_t dropped = 0;
  };

  /// One fig12 task: `trace` through the controller with the serving layer
  /// riding the engine; the SLO strategy closes the loop from the serving
  /// window p99 into the sprint bound. `probe` brackets the serving layer.
  Outcome run_task(const core::DataCenterConfig& config,
                   const std::string& strategy_name,
                   serving::ServingParams params, const TimeSeries& trace,
                   bool probe, SpanLog& spans, int parent) const {
    params.demand = &trace;
    serving::ServingLayer serving(params);
    core::SloSprintStrategy slo(
        core::SloSprintParams{.target_p99_s = kSloMs * 1e-3});
    core::GreedyStrategy greedy;
    core::ConstantBoundStrategy nosprint(1.0, "nosprint");
    core::Strategy* strategy = &nosprint;
    if (strategy_name == "slo") {
      strategy = &slo;
      serving.set_slo_callback([&slo](const serving::ServingStats& stats) {
        slo.observe_latency(stats.p99_s);
      });
    } else if (strategy_name == "greedy") {
      strategy = &greedy;
    }
    core::DataCenter dc(config);
    ProbeClock clock;
    Probe open(clock, true);
    Probe close(clock, false);
    core::RunOptions opts;
    opts.components = probe ? std::vector<sim::Component*>{&open, &serving,
                                                           &close}
                            : std::vector<sim::Component*>{&serving};
    opts.on_step = [&serving](Duration, Duration, const core::StepResult& s) {
      serving.set_capacity_degree(s.degree);
    };
    Outcome out;
    out.strategy = strategy_name;
    out.placement = params.placement;
    out.run = timed_run(dc, trace, strategy, opts, spans, parent, out.run_ms);
    out.p50_ms = serving.latency().p50() * 1e3;
    out.p99_ms = serving.latency().p99() * 1e3;
    out.p999_ms = serving.latency().p999() * 1e3;
    out.drop_pct = serving.drop_fraction() * 100.0;
    out.offered = serving.offered_total();
    out.dropped = serving.dropped_total();
    out.serving_us = std::chrono::duration<double, std::micro>(clock.total)
                         .count();
    return out;
  }

  /// Runs every task of `spec` on the sweep runner; `configure` sets the
  /// task's serving parameters and data-center config and names its
  /// strategy. Axis 1 of every grid is the swept level.
  template <class Configure>
  std::vector<Outcome> run_grid(const exp::SweepSpec& spec,
                                const TimeSeries& trace, bool probe,
                                SpanLog& spans, int parent, Totals& totals,
                                Configure&& configure) const {
    std::vector<Outcome> rows(spec.task_count());
    exp::RunnerOptions runner;
    runner.threads = s_.workers;
    const int sweep_id = spans.open("exp.run_sweep", parent);
    (void)exp::run_sweep(
        spec, {"p99_ms"},
        [&](const exp::SweepSpec::Task& task) {
          const ScopedSpan task_span(spans, "exp.task", sweep_id);
          serving::ServingParams params = base_;
          core::DataCenterConfig config = config_;
          const std::string strategy = configure(task, params, config);
          Outcome& o = rows[task.index];
          o = run_task(config, strategy, params, trace, probe, spans,
                       task_span.id());
          o.level = spec.value(task, 1);
          o.label = spec.name() + " " + spec.label(task, 0) + " " +
                    spec.label(task, 1) + "x " + strategy;
          return std::vector<double>{o.p99_ms};
        },
        runner);
    spans.close(sweep_id);
    const std::size_t ticks = ticks_of(trace, config_);
    for (const Outcome& o : rows) {
      totals.run_us += o.run_ms * 1e3;
      totals.serving_us += o.serving_us;
      totals.offered += o.offered;
      totals.dropped += o.dropped;
      totals.ticks += ticks;
      ++totals.runs;
    }
    return rows;
  }

  /// fig12's shape checks, per placement policy: the SLO strategy's p99
  /// never rises with the ESD budget, and SLO sprinting is never worse
  /// than no sprinting on p99 or drops at any admission level, and
  /// strictly better on p99 at one level at least (generous admission can
  /// saturate the histogram cap for both).
  void check_fig12(const std::vector<Outcome>& budget_rows,
                   const std::vector<Outcome>& admit_rows,
                   PassResult& out) const {
    for (const std::string& placement : placements_) {
      ++out.attempted;
      std::vector<std::pair<double, double>> slo;
      for (const Outcome& o : budget_rows) {
        if (o.placement == placement && o.strategy == "slo") {
          slo.emplace_back(o.level, o.p99_ms);
        }
      }
      std::sort(slo.begin(), slo.end());
      for (std::size_t i = 1; i < slo.size(); ++i) {
        if (!(slo[i].second <= slo[i - 1].second)) {
          out.failures.push_back(placement + ": SLO p99 rose with budget");
          break;
        }
      }
      ++out.attempted;
      std::size_t wins = 0;
      bool dominated = true;
      for (const Outcome& a : admit_rows) {
        if (a.placement != placement || a.strategy != "slo") continue;
        for (const Outcome& b : admit_rows) {
          if (b.placement != placement || b.strategy != "nosprint" ||
              b.level != a.level) {
            continue;
          }
          dominated = dominated && a.p99_ms <= b.p99_ms &&
                      a.drop_pct <= b.drop_pct;
          wins += a.p99_ms < b.p99_ms ? 1 : 0;
        }
      }
      if (!dominated || wins == 0) {
        out.failures.push_back(placement +
                               ": SLO sprinting does not dominate no-sprint");
      }
    }
  }

  Settings s_;
  core::DataCenterConfig config_;
  serving::ServingParams base_;
  std::vector<std::string> placements_ = {"round_robin", "jsq"};
  std::vector<double> budgets_;
  std::vector<double> admits_;
};

// ---------------------------------------------------------------- day_traced

/// Host time spent inside the sinks' write calls, and how many there were.
struct SinkTiming {
  std::chrono::nanoseconds ns{0};
  std::size_t events = 0;
};

/// Forwards to the bench's sink set and times every event write into it:
/// obs.ns_per_event.
class TimedSink final : public obs::TraceSink {
 public:
  TimedSink(obs::TraceSink* inner, SinkTiming& timing)
      : inner_(inner), timing_(timing) {}
  void write(const obs::TraceEvent& event) override {
    const auto start = std::chrono::steady_clock::now();
    inner_->write(event);
    timing_.ns += std::chrono::steady_clock::now() - start;
    ++timing_.events;
  }
  void write_lane_name(obs::Domain domain, std::uint32_t lane,
                       const std::string& name) override {
    inner_->write_lane_name(domain, lane, name);
  }
  void finalize() override { inner_->finalize(); }
  [[nodiscard]] bool healthy() const override { return inner_->healthy(); }

 private:
  obs::TraceSink* inner_;
  SinkTiming& timing_;
};

/// One pass is one Fig. 1 day (86,400 control periods) with its own
/// seeded bursts and 2-4 faults, streamed and exported as a traced bench
/// run would be.
class Day final : public Workload {
 public:
  explicit Day(const Settings& settings)
      : s_(settings), config_(facility(settings.pdus)) {}

  PassResult pass(SpanLog& spans, bool traced) override {
    PassResult out;
    const int root = spans.open("pass", -1);
    DayInput day;
    std::optional<core::DataCenter> dc;
    timed_setup(spans, root, out, [&](int setup) {
      {
        const ScopedSpan gen(spans, "workload.gen", setup);
        day = draw_day();
      }
      const ScopedSpan init(spans, "core.dc_init", setup);
      dc.emplace(config_);
    });

    const double start = now_us();
    const fs::path dir = fs::path(s_.scratch_dir) /
                         ("day_traced-" + std::to_string(::getpid()) + "-" +
                          std::to_string(days_streamed_++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    Config args;
    args.set("trace", dir.string());
    args.set("sink", "stream");
    bench::StreamTraceSinks stream = bench::maybe_stream_sinks(args, "day");
    if (!stream.active()) throw std::runtime_error("stream sinks inactive");
    SinkTiming timing;
    TimedSink timed(stream.sink(), timing);
    obs::Tracer tracer(traced ? static_cast<obs::TraceSink*>(&timed)
                              : stream.sink());
    tracer.name_lane(obs::Domain::kSim, 0, "greedy/day");
    obs::DecisionLog decisions(&tracer);
    core::GreedyStrategy greedy;
    core::RunOptions opts = faulted(day);
    opts.record = true;
    opts.tracer = &tracer;
    opts.decisions = &decisions;
    double ms = 0.0;
    const core::RunResult run =
        timed_run(*dc, day.demand, &greedy, opts, spans, root, ms);
    out.run_ms.push_back(ms);
    {
      const ScopedSpan span(spans, "obs.export_counters", root);
      obs::CounterExportOptions counters;
      counters.channels = bench::kDefaultCounterChannels;
      obs::export_counters(run.recorder, tracer, counters);
    }
    std::ostringstream diag;
    {
      const ScopedSpan span(spans, "obs.finalize", root);
      stream.finalize(&diag);
    }
    const std::size_t events =
        tracer.count(obs::Domain::kSim) + tracer.count(obs::Domain::kWall);
    std::uintmax_t bytes = 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      bytes += entry.file_size();
    }
    check_run(run, "traced day run", out);
    check_sinks(stream, diag.str(), events, /*lanes=*/1, out);
    fs::remove_all(dir);
    out.wall_s = (now_us() - start) * 1e-6;
    spans.close(root);
    Digest digest;
    digest_run(digest, run);
    digest.add(static_cast<std::uint64_t>(events));
    out.digest = digest.value();
    if (!traced) return out;

    // The observability and fault layers, one RunOptions field at a time:
    // bare, + faults, + record, + buffered tracer and decision log. The
    // pass above is the last rung, with the stream sinks.
    const double fixed_us = run_fixed_us(*dc, day.demand, out);
    const double bare_us = rung_us(*dc, day.demand, {}, "bare day run", out);
    const double faults_us =
        rung_us(*dc, day.demand, faulted(day), "faulted day run", out);
    core::RunOptions recorded = faulted(day);
    recorded.record = true;
    const double record_us =
        rung_us(*dc, day.demand, recorded, "recorded day run", out);
    obs::Tracer buffered;
    obs::DecisionLog buffered_decisions(&buffered);
    recorded.tracer = &buffered;
    recorded.decisions = &buffered_decisions;
    const double trace_us =
        rung_us(*dc, day.demand, recorded, "buffered traced day run", out);
    const double ticks = static_cast<double>(ticks_of(day.demand, config_));
    const std::vector<Span> all = spans.spans();
    out.layers.insert({
        {"workload.gen_ms", span_median_ms(all, "workload.gen")},
        {"core.dc_init_us", span_median_ms(all, "core.dc_init") * 1e3},
        {"core.run_fixed_us", fixed_us},
        {"core.tick_ns", 1e3 * (bare_us - fixed_us) / ticks},
        {"core.runs", 1.0},
        {"sim.ticks", ticks},
        {"faults.tick_ns", 1e3 * (faults_us - bare_us) / ticks},
        {"obs.record_tick_ns", 1e3 * (record_us - faults_us) / ticks},
        {"obs.trace_tick_ns", 1e3 * (trace_us - record_us) / ticks},
        {"obs.export_ms", span_total_ms(all, "obs.export_counters") +
                              span_total_ms(all, "obs.finalize")},
        {"obs.events", static_cast<double>(events)},
        {"obs.ns_per_event", static_cast<double>(timing.ns.count()) /
                                 static_cast<double>(timing.events)},
        {"obs.bytes_per_event",
         static_cast<double>(bytes) / static_cast<double>(events)},
        {"obs.trace_mb", static_cast<double>(bytes) * 1e-6},
    });
    return out;
  }

 private:
  struct DayInput {
    TimeSeries demand;
    faults::FaultSchedule schedule;
    std::uint64_t fault_seed = 0;
  };

  /// The day's trace, fault schedule and injector noise seed, each from
  /// its own stream of the benchmark seed.
  DayInput draw_day() const {
    DayInput day;
    workload::MsDayTraceParams params;
    params.seed = derive_seed(s_.seed, kDayTraceSeed);
    if (s_.tiny) params.length = Duration::hours(2);
    // Normalized to the 4 GB/s sprint-free capacity, as in fig01.
    day.demand = workload::generate_ms_day_trace(params).scaled(1.0 / 4.0);
    day.schedule = faults::FaultSchedule::random(
        derive_seed(s_.seed, kFaultScheduleSeed), day.demand.end_time(),
        kFaultSeverity);
    day.fault_seed = derive_seed(s_.seed, kFaultNoiseSeed);
    return day;
  }

  static core::RunOptions faulted(const DayInput& day) {
    core::RunOptions opts;
    opts.faults = &day.schedule;
    opts.fault_seed = day.fault_seed;
    return opts;
  }

  double rung_us(core::DataCenter& dc, const TimeSeries& day,
                 const core::RunOptions& opts, const std::string& what,
                 PassResult& out) const {
    core::GreedyStrategy greedy;
    SpanLog untraced(false);
    double ms = 0.0;
    check_run(timed_run(dc, day, &greedy, opts, untraced, -1, ms), what, out);
    return ms * 1e3;
  }

  /// The stream sinks must stay healthy, and every encoding they wrote
  /// must hold every event the tracer produced (an encoding that stores
  /// lane names as events, like the Chrome one, holds those too).
  static void check_sinks(const bench::StreamTraceSinks& stream,
                          const std::string& diag, std::size_t events,
                          std::size_t lanes, PassResult& out) {
    ++out.attempted;
    if (!stream.active() || !stream.sink()->healthy()) {
      out.failures.push_back("trace sinks unhealthy");
      return;
    }
    std::istringstream lines(diag);
    std::string line;
    std::size_t encodings = 0;
    while (std::getline(lines, line)) {
      constexpr std::string_view kStreamed = "[obs] streamed ";
      if (line.rfind(kStreamed, 0) != 0) {
        out.failures.push_back("trace sink: " + line);
        continue;
      }
      ++encodings;
      const std::size_t written =
          std::stoull(line.substr(kStreamed.size()));
      if (written != events && written != events + lanes) {
        out.failures.push_back("encodings disagree on event count: " + line +
                               " (tracer " + std::to_string(events) + ")");
      }
    }
    if (encodings == 0) out.failures.push_back("no trace encoding written");
  }

  Settings s_;
  core::DataCenterConfig config_;
  std::size_t days_streamed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Settings& settings) {
  if (name == "strategies_909") return std::make_unique<Strategies>(settings);
  if (name == "serving_slo") return std::make_unique<Serving>(settings);
  if (name == "day_traced") return std::make_unique<Day>(settings);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
