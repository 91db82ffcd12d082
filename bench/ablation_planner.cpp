// Ablation — the extension strategies vs the paper's four: the closed-form
// budget-paced planner (the paper's optimization future work) and the
// fully-online adaptive strategy (no oracle inputs at all), on long bursts
// where strategy choice matters.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/budget_paced_strategy.h"
#include "core/heuristic_strategy.h"
#include "core/online_strategy.h"
#include "core/oracle.h"
#include "core/prediction_strategy.h"
#include "util/table.h"
#include "workload/ms_trace.h"
#include "workload/predictor.h"
#include "workload/yahoo_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "ablation_planner");
  const DataCenterConfig config = bench::bench_config(args);
  DataCenter dc(config);

  std::cout << "=== Extension strategies vs the paper's four ===\n"
            << "(budget-paced: closed-form plan, no simulation; online:"
               " self-learned forecasts)\n\n";

  const std::vector<Duration> durations = {
      Duration::minutes(1), Duration::minutes(5), Duration::minutes(10),
      Duration::minutes(15), Duration::minutes(25)};
  const std::vector<double> degrees = {1.5, 2.0, 2.6, 3.0, 3.6};
  const UpperBoundTable table = build_upper_bound_table(
      dc, durations, degrees, workload::YahooTraceParams{}, 4);
  const double budget = dc.budget_degree_seconds();

  TablePrinter out({"workload", "Greedy", "Prediction", "Heuristic",
                    "BudgetPaced", "Online", "Oracle"});
  auto row = [&](const char* label, const TimeSeries& trace) {
    const workload::BurstTruth truth = workload::measure_burst_truth(trace);
    GreedyStrategy greedy;
    const OracleResult oracle = oracle_search(dc, trace, 2);
    ConstantBoundStrategy ob(oracle.best_bound, "oracle");
    const RunResult orun = dc.run(trace, &ob);
    PredictionStrategy prediction(truth.duration, &table);
    HeuristicStrategy heuristic(orun.avg_sprint_degree, budget);
    BudgetPacedStrategy paced(trace, config);
    OnlineAdaptiveStrategy online(&table);
    out.add_row(label,
                {dc.run(trace, &greedy).performance_factor,
                 dc.run(trace, &prediction).performance_factor,
                 dc.run(trace, &heuristic).performance_factor,
                 dc.run(trace, &paced).performance_factor,
                 dc.run(trace, &online).performance_factor,
                 oracle.best_performance});
  };

  row("MS trace", workload::generate_ms_trace());
  for (double degree : {2.6, 3.2, 3.6}) {
    workload::YahooTraceParams p;
    p.burst_degree = degree;
    p.burst_duration = Duration::minutes(15);
    row(("Yahoo " + format_double(degree, 1) + "x/15min").c_str(),
        workload::generate_yahoo_trace(p));
  }
  out.print(std::cout);

  std::cout << "\nThe budget-paced plan tracks the Oracle without running a"
               " single simulation;\nthe online strategy needs no forecast"
               " inputs and still clearly beats Greedy on long bursts.\n";
  bench::finish_obs(stream);
  return 0;
}
