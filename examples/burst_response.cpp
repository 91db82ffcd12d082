// Burst response: an operator's view of one workload burst.
//
// Builds the default data center, injects a burst you describe on the
// command line, runs all four strategies, and prints a per-minute timeline
// of the best one (demand, achieved, degree, phase, breaker heat, ESD state)
// plus a CSV export if requested.
//
// Usage: burst_response [degree=3.2] [minutes=12] [error=0.0] [csv=dir]
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/heuristic_strategy.h"
#include "core/oracle.h"
#include "core/prediction_strategy.h"
#include "util/config.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/predictor.h"
#include "workload/yahoo_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  using bench::Kind;
  static constexpr bench::Key kKeys[] = {
      {"degree", Kind::kNumber}, {"minutes", Kind::kNumber},
      {"error", Kind::kNumber}, {"pdus", Kind::kCount}, {"csv"}};
  const Config args = bench::read_args(argc, argv, kKeys);

  const double degree = args.get_double("degree", 3.2);
  const double minutes = args.get_double("minutes", 12.0);
  const double error = args.get_double("error", 0.0);

  DataCenterConfig config;
  config.fleet.pdu_count = args.get_count("pdus", 8);
  DataCenter dc = bench::checked(argv[0], args, {"pdus"}, "data center",
                                 [&] { return DataCenter(config); });

  workload::YahooTraceParams tp;
  tp.burst_degree = degree;
  tp.burst_duration = Duration::minutes(minutes);
  if (tp.burst_start + tp.burst_duration + Duration::minutes(5) > tp.length) {
    tp.length = tp.burst_start + tp.burst_duration + Duration::minutes(5);
  }
  const TimeSeries trace =
      bench::checked(argv[0], args, {"degree", "minutes"}, "burst trace",
                     [&] { return workload::generate_yahoo_trace(tp); });
  const workload::BurstTruth truth = workload::measure_burst_truth(trace);
  const workload::ErrorfulForecast forecast =
      bench::checked(argv[0], args, {"error"}, "forecast", [&] {
        return workload::ErrorfulForecast(truth, error);
      });

  std::cout << "Burst: degree " << format_double(degree, 1) << "x for "
            << format_double(minutes, 0) << " min (forecast error "
            << format_double(error * 100.0, 0) << "%)\n\n";

  // Build the oracle reference and the prediction table.
  const std::vector<Duration> durations = {
      Duration::minutes(1), Duration::minutes(5), Duration::minutes(10),
      Duration::minutes(15), Duration::minutes(25)};
  const std::vector<double> degrees = {1.5, 2.0, 2.6, 3.0, 3.6};
  const UpperBoundTable table = build_upper_bound_table(
      dc, durations, degrees, workload::YahooTraceParams{}, 4);

  const OracleResult oracle = oracle_search(dc, trace, 2);
  ConstantBoundStrategy oracle_strategy(oracle.best_bound, "oracle");
  const RunResult oracle_run = dc.run(trace, &oracle_strategy);

  GreedyStrategy greedy;
  PredictionStrategy prediction(forecast.predicted_duration(), &table);
  HeuristicStrategy heuristic(forecast.apply(oracle_run.avg_sprint_degree),
                              dc.budget_degree_seconds());

  TablePrinter summary(
      {"strategy", "avg perf", "drop %", "sprint min", "min UPS SoC"});
  RunResult best_run;
  std::string best_name;
  double best_perf = 0.0;
  auto consider = [&](const char* name, Strategy* s) {
    RunResult r = dc.run(trace, s, {.record = true});
    summary.add_row(name, {r.performance_factor, r.drop_fraction * 100.0,
                           r.sprint_time.min(), r.min_ups_soc});
    if (r.performance_factor > best_perf) {
      best_perf = r.performance_factor;
      best_run = std::move(r);
      best_name = name;
    }
  };
  consider("greedy", &greedy);
  consider("prediction", &prediction);
  consider("heuristic", &heuristic);
  consider("oracle", &oracle_strategy);
  summary.print(std::cout);

  std::cout << "\nTimeline of the best strategy (" << best_name << "):\n";
  TablePrinter timeline({"min", "demand", "achieved", "degree", "phase",
                         "dc CB heat", "UPS SoC", "TES SoC", "room C"});
  const auto& rec = best_run.recorder;
  for (double m = 0.0; m <= trace.end_time().min(); m += 2.0) {
    const Duration t = Duration::minutes(m);
    timeline.add_row(format_double(m, 0),
                     {rec.series("demand").at(t), rec.series("achieved").at(t),
                      rec.series("degree").at(t), rec.series("phase").at(t),
                      rec.series("dc_cb_heat").at(t),
                      rec.series("ups_soc").at(t), rec.series("tes_soc").at(t),
                      rec.series("room_c").at(t)},
                     2);
  }
  timeline.print(std::cout);

  const std::string csv_dir = args.get_string("csv", "");
  if (!csv_dir.empty()) {
    for (const std::string& ch : rec.channels()) {
      std::ofstream out(csv_dir + "/burst_" + ch + ".csv");
      CsvWriter csv(out);
      csv.write_row({"time_s", ch});
      const TimeSeries series = rec.series(ch);
      for (const Sample& s : series.samples()) {
        csv.write_numeric_row({s.time.sec(), s.value});
      }
    }
    std::cout << "\nwrote per-channel CSVs to " << csv_dir << "/\n";
  }
  return 0;
}
