// Figure 7 — the two experiment workloads: the 30-minute MS cut (7a) and
// the Yahoo trace with an injected burst (7b, degree 3.2 / 15 min).
#include <iostream>

#include "bench_util.h"
#include "util/table.h"
#include "workload/burst.h"
#include "workload/ms_trace.h"
#include "workload/yahoo_trace.h"

namespace {

void print_minutes(const dcs::TimeSeries& trace, const char* label) {
  using namespace dcs;
  std::cout << "\n" << label << " (per-minute mean, % of capacity):\n";
  TablePrinter table({"minute", "demand %", "minute ", "demand % "});
  const int total = static_cast<int>(trace.end_time().min());
  for (int m = 0; m < total / 2; ++m) {
    const int m2 = m + total / 2;
    const double v1 =
        trace.slice(Duration::minutes(m), Duration::minutes(m + 1))
            .time_weighted_mean();
    const double v2 =
        trace.slice(Duration::minutes(m2), Duration::minutes(m2 + 1))
            .time_weighted_mean();
    table.add_row(std::to_string(m),
                  {v1 * 100.0, static_cast<double>(m2), v2 * 100.0}, 0);
  }
  table.print(std::cout);
  const workload::BurstStats stats = workload::analyze_bursts(trace);
  std::cout << "peak " << format_double(stats.peak_demand * 100.0, 0)
            << "%  over-capacity "
            << format_double(stats.over_capacity_time.min(), 1) << " min in "
            << stats.burst_count << " bursts, mean burst magnitude "
            << format_double(stats.mean_burst_demand, 2) << "x\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "fig07_traces");

  std::cout << "=== Figure 7: experiment workload traces ===\n";
  const TimeSeries ms = workload::generate_ms_trace();
  bench::maybe_export_csv(args, "fig07a_ms_trace", ms);
  print_minutes(ms, "Fig. 7a: MS trace (paper: peak >300%, 16.2 min over capacity)");

  const TimeSeries yahoo = workload::generate_yahoo_trace();
  bench::maybe_export_csv(args, "fig07b_yahoo_trace", yahoo);
  print_minutes(yahoo,
                "Fig. 7b: Yahoo trace, burst degree 3.2, duration 15 min");
  bench::finish_obs(stream);
  return 0;
}
