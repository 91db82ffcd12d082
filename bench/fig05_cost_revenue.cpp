// Figure 5 — monthly cost of provisioning dark cores vs revenue of
// sprinting, for burst magnitudes utilizing 50/75/100 % of the additional
// cores (R50/R75/R100), with Ut = 4 U0 (Fig. 5a) and Ut = 6 U0 (Fig. 5b).
// Also reproduces the Section V-D trace-driven revenue example ("~$19 M").
//
// The (Ut, N) grid runs on the src/exp sweep runner so the cost/revenue
// cells export rows/summary/perf records like the simulation benches.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "econ/profitability.h"
#include "util/table.h"
#include "workload/ms_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream =
      bench::obs_setup(args, "fig05_cost_revenue");

  const econ::ProfitabilityAnalysis analysis{econ::CostModel{},
                                             econ::RevenueModel{}};
  const std::vector<double> ut_over_u0 = {4.0, 6.0};
  const std::vector<double> max_degrees = {1.5, 2.0, 2.5, 3.0, 3.5, 4.0};

  exp::SweepSpec spec("fig05_cost_revenue");
  spec.add_axis("ut_over_u0", ut_over_u0, 0);
  spec.add_axis("max_degree", max_degrees, 1);
  const exp::SweepRun run = exp::run_sweep(
      spec, {"cost_m", "r50_m", "r75_m", "r100_m", "profit_r100_m"},
      [&](const exp::SweepSpec::Task& task) {
        const double ut = spec.value(task, 0);
        const double n = spec.value(task, 1);
        const auto r50 = analysis.analyze(n, 5.0, 3, 0.50, ut);
        const auto r75 = analysis.analyze(n, 5.0, 3, 0.75, ut);
        const auto r100 = analysis.analyze(n, 5.0, 3, 1.00, ut);
        return std::vector<double>{
            r100.cost_usd / 1e6, r50.total_revenue_usd() / 1e6,
            r75.total_revenue_usd() / 1e6, r100.total_revenue_usd() / 1e6,
            r100.profit_usd() / 1e6};
      },
      bench::runner_options(args, spec));

  std::cout << "=== Figure 5: cost and revenue of Data Center Sprinting ===\n";
  for (std::size_t u = 0; u < ut_over_u0.size(); ++u) {
    std::cout << "\n--- K = 3 bursts/month, L = 5 min, Ut = "
              << format_double(ut_over_u0[u], 0) << " U0 ---\n";
    TablePrinter table({"max degree N", "cost $M", "R50 $M", "R75 $M",
                        "R100 $M", "profit@R100 $M"});
    for (std::size_t d = 0; d < max_degrees.size(); ++d) {
      const std::vector<double>& row = run.rows[u * max_degrees.size() + d];
      if (row.empty()) continue;  // slot owned by another shard
      table.add_row(format_double(max_degrees[d], 1),
                    {row[0], row[1], row[2], row[3], row[4]});
    }
    table.print(std::cout);
  }

  std::cout << "\nPaper claims: cost $156,250(N-1)/month; high bursts at"
               " N=4 profit > $0.4M/month;\nlow (50%) bursts see diminishing"
               " returns from extra cores.\n";

  // Section V-D trace example: the Fig. 1 workload repeated for a month,
  // capacity 4 GB/s, N = 4, Ut = 4 U0.
  const TimeSeries day = workload::generate_ms_day_trace();
  const TimeSeries demand = day.scaled(1.0 / 4.0);
  const auto monthly = analysis.analyze_trace(demand, 4.0, 4.0, 1.0 / 30.0);
  std::cout << "\n--- Section V-D trace-driven example (month of Fig. 1) ---\n"
            << "  request revenue   $"
            << format_double(monthly.request_revenue_usd / 1e6, 2) << " M\n"
            << "  retention revenue $"
            << format_double(monthly.retention_revenue_usd / 1e6, 2) << " M\n"
            << "  total             $"
            << format_double(monthly.total_revenue_usd() / 1e6, 2)
            << " M (paper: ~$19 M)\n"
            << "  core cost         $"
            << format_double(monthly.cost_usd / 1e6, 2)
            << " M (paper: $0.47 M)\n";

  const exp::SweepSummary summary = exp::aggregate(spec, run);
  bench::maybe_export_sweep(args, spec, run, summary);
  bench::finish_obs(stream);
  std::cerr << "[exp] " << run.rows.size() << " tasks in "
            << format_double(run.wall_seconds, 2) << " s on "
            << run.threads_used << " thread(s)\n";
  bench::drain_exit_if_requested();
  return 0;
}
