// Testbed demo: drive the emulated hardware testbed (Section VI-B) with a
// chosen policy and watch the breaker/UPS interplay second by second.
//
// Usage: testbed_demo [policy=ours|cbfirst|cbonly] [reserve=30] [ups_wh=10]
#include <iostream>
#include <string>

#include "bench_util.h"
#include "testbed/testbed.h"
#include "util/config.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::testbed;
  using bench::Kind;
  static constexpr bench::Key kKeys[] = {
      {"policy"}, {"reserve", Kind::kNumber}, {"ups_wh", Kind::kNumber}};
  const Config args = bench::read_args(argc, argv, kKeys);

  const std::string policy_name = args.get_string("policy", "ours");
  Policy policy = Policy::kReservedTripTime;
  if (policy_name == "cbfirst") {
    policy = Policy::kCbFirst;
  } else if (policy_name == "cbonly") {
    policy = Policy::kCbOnly;
  } else if (policy_name != "ours") {
    bench::usage_error(argv[0], "unknown policy '" + policy_name +
                                    "' (want ours|cbfirst|cbonly)");
  }
  const Duration reserve = Duration::seconds(args.get_double("reserve", 30.0));

  TestbedParams params;
  params.ups_capacity = Energy::watt_hours(args.get_double("ups_wh", 10.0));
  Testbed tb = bench::checked(argv[0], args, {"ups_wh"}, "testbed",
                              [&] { return Testbed(params); });
  const TimeSeries util = reference_utilization();
  // The run checks the reserve before its first step and prints nothing.
  const TestbedOutcome r =
      bench::checked(argv[0], args, {"reserve"}, "testbed run",
                     [&] { return tb.run(util, policy, reserve); });

  std::cout << "policy " << policy_name << ", reserved trip time "
            << to_string(reserve) << ", UPS "
            << to_string(params.ups_capacity) << "\n\n";
  TablePrinter table({"t (s)", "server W", "CB W", "UPS W"});
  for (double t = 0.0; t <= r.sustained.sec(); t += 15.0) {
    table.add_row(format_double(t, 0),
                  {r.total_power_w.at(Duration::seconds(t)),
                   r.cb_power_w.at(Duration::seconds(t)),
                   r.ups_power_w.at(Duration::seconds(t))},
                  0);
  }
  table.print(std::cout);

  std::cout << "\nsustained " << to_string(r.sustained)
            << (r.cb_tripped ? " until the breaker tripped" : " (trace end)")
            << "; CB overloaded for " << to_string(r.cb_overload_time)
            << "; UPS energy used " << to_string(r.ups_energy_used) << "\n";
  return 0;
}
