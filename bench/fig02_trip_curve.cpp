// Figure 2 — the Bulletin 1489-A style circuit-breaker trip curve: trip time
// versus overload magnitude, with the long-delay thermal region, the
// never-trip region, and the instantaneous (short-circuit) region.
#include <iostream>

#include "bench_util.h"
#include "power/trip_curve.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dcs;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "fig02_trip_curve");

  std::cout << "=== Figure 2: circuit breaker trip curve ===\n";
  const power::TripCurve curve;

  TablePrinter table({"load %", "overload %", "region", "trip time"});
  for (double ratio : {0.50, 1.00, 1.05, 1.10, 1.20, 1.30, 1.40, 1.50, 1.60,
                       1.80, 2.00, 2.50, 3.00, 4.00, 5.00, 8.00}) {
    const Duration t = curve.time_to_trip(ratio);
    const char* region = t.is_infinite()            ? "not tripped"
                         : ratio >= 5.0             ? "short circuit"
                                                    : "long-delay (thermal)";
    table.add_row({format_double(ratio * 100.0, 0),
                   format_double((ratio - 1.0) * 100.0, 0), region,
                   to_string(t)});
  }
  table.print(std::cout);

  std::cout << "\nPaper operating points (Section VII-D):\n"
            << "  60% overload -> " << to_string(curve.time_to_trip(1.6))
            << " (paper: 1 minute)\n"
            << "  30% overload -> " << to_string(curve.time_to_trip(1.3))
            << " (paper: 4 minutes)\n";
  bench::finish_obs(stream);
  return 0;
}
