// Economics explorer: is sprinting profitable for *your* data center?
//
// Reproduces the paper's Section V-D cost/revenue analysis with every input
// exposed on the command line.
//
// Usage: economics [servers=18750] [N=4] [bursts=3] [minutes=5]
//                  [utilization=1.0] [ut_over_u0=4] [core_usd=40]
#include <iostream>

#include "bench_util.h"
#include "econ/profitability.h"
#include "util/config.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::econ;
  using bench::Kind;
  static constexpr bench::Key kKeys[] = {
      {"servers", Kind::kCount}, {"core_usd", Kind::kNumber},
      {"N", Kind::kNumber}, {"bursts", Kind::kCount},
      {"minutes", Kind::kNumber}, {"utilization", Kind::kNumber},
      {"ut_over_u0", Kind::kNumber}};
  const Config args = bench::read_args(argc, argv, kKeys);

  CostModel::Params cost_params;
  cost_params.servers = args.get_count("servers", 18750);
  cost_params.core_cost_usd = args.get_double("core_usd", 40.0);
  const double n = args.get_double("N", 4.0);
  const std::size_t bursts = args.get_count("bursts", 3);
  const double minutes = args.get_double("minutes", 5.0);
  const double utilization = args.get_double("utilization", 1.0);
  const double ut_over_u0 = args.get_double("ut_over_u0", 4.0);

  const ProfitabilityAnalysis analysis{CostModel{cost_params}, RevenueModel{}};
  const ProfitBreakdown p =
      analysis.analyze(n, minutes, bursts, utilization, ut_over_u0);

  std::cout << "Data center: " << cost_params.servers << " servers, max"
            << " sprinting degree " << format_double(n, 1) << "\n"
            << "Bursts: " << bursts << " per month, "
            << format_double(minutes, 0) << " min each, utilizing "
            << format_double(utilization * 100.0, 0)
            << "% of the extra cores; Ut = " << format_double(ut_over_u0, 0)
            << " U0\n\n";

  TablePrinter table({"item", "$/month"});
  table.add_row({"dark-core provisioning cost",
                 format_double(-p.cost_usd, 0)});
  table.add_row({"revenue: served excess requests",
                 format_double(p.request_revenue_usd, 0)});
  table.add_row({"revenue: retained users",
                 format_double(p.retention_revenue_usd, 0)});
  table.add_row({"net profit", format_double(p.profit_usd(), 0)});
  table.print(std::cout);

  std::cout << "\nBreak-even burst count at these parameters: ";
  int k = 0;
  while (k < 1000 &&
         analysis.analyze(n, minutes, k, utilization, ut_over_u0).profit_usd() <
             0.0) {
    ++k;
  }
  if (k == 1000) {
    std::cout << "never (cost dominates)\n";
  } else {
    std::cout << k << " bursts/month\n";
  }
  return 0;
}
