// Ablation — zonal (non-uniform) sprinting: bursts concentrated on a few
// PDU groups, coordinated with the paper's Section V-B parent/child breaker
// rule. Shows the fairness split when zones compete and the advantage of a
// concentrated burst (idle neighbours' substation budget flows to it).
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/datacenter.h"
#include "obs/counters.h"
#include "obs/decision.h"
#include "util/table.h"
#include "workload/yahoo_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  const Config args = bench::parse_args(argc, argv);
  bench::StreamTraceSinks stream = bench::obs_setup(args, "ablation_zonal");
  DataCenterConfig config = bench::bench_config(args);
  const bool tracing = bench::tracing_enabled(args);

  // Per-scenario lanes: each zonal run traces its controller instants and
  // decisions into its own named lane, then exports the default channels
  // and its per-zone channels there as counter tracks, so Perfetto shows
  // every zone's breaker margin / degree / UPS state side by side.
  obs::Tracer tracer(stream.sink());
  std::uint32_t next_lane = 0;
  const auto run_zones = [&](const std::vector<Zone>& zones,
                             const std::string& label) {
    GreedyStrategy greedy;
    RunOptions options;
    std::optional<obs::DecisionLog> decisions;
    if (tracing) {
      tracer.set_lane(next_lane);
      tracer.name_lane(obs::Domain::kSim, next_lane, label);
      ++next_lane;
      options.record = true;
      options.tracer = &tracer;
      decisions.emplace(&tracer);
      options.decisions = &*decisions;
    }
    RunResult r = DataCenter(config).run(zones, &greedy, options);
    if (tracing) {
      std::vector<std::string> channels = bench::kDefaultCounterChannels;
      channels.push_back("dc_load_mw");
      obs::export_counters(
          r.recorder, tracer,
          {.channels = obs::with_zonal_channels(std::move(channels),
                                                zones.size())});
    }
    return r;
  };

  std::cout << "=== Zonal sprinting (Section V-B CB coordination) ===\n";

  workload::YahooTraceParams hot_p;
  hot_p.burst_degree = 4.0;
  hot_p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(hot_p);
  TimeSeries idle;
  idle.push_back(Duration::zero(), 0.4);
  idle.push_back(hot.end_time(), 0.4);

  std::cout << "\n--- one hot zone (4.0x/10min), neighbours idle ---\n";
  TablePrinter t1({"hot-zone PDUs / total", "hot perf", "idle perf",
                   "total perf", "sprint min"});
  config.fleet.pdu_count = 8;
  for (std::size_t hot_pdus : {1u, 2u, 4u}) {
    const RunResult r =
        run_zones({{hot_pdus, &hot}, {8 - hot_pdus, &idle}},
                  "hot=" + std::to_string(hot_pdus) + "/8");
    t1.add_row(std::to_string(hot_pdus) + "/8",
               {r.zone_performance_factor[0], r.zone_performance_factor[1],
                r.performance_factor, r.sprint_time.min()});
  }
  t1.print(std::cout);

  std::cout << "\n--- two zones competing (heavy 3.6x vs light 2.0x,"
               " 15 min, zero headroom) ---\n";
  config.dc_headroom = 0.0;
  workload::YahooTraceParams heavy_p, light_p;
  heavy_p.burst_degree = 3.6;
  heavy_p.burst_duration = Duration::minutes(15);
  light_p.burst_degree = 2.0;
  light_p.burst_duration = Duration::minutes(15);
  light_p.seed = 0x777;
  const TimeSeries heavy = workload::generate_yahoo_trace(heavy_p);
  const TimeSeries light = workload::generate_yahoo_trace(light_p);
  const RunResult r =
      run_zones({{4, &heavy}, {4, &light}}, "competing heavy-vs-light");
  TablePrinter t2({"zone", "burst", "perf"});
  t2.add_row({"heavy", "3.6x / 15 min",
              format_double(r.zone_performance_factor[0], 3)});
  t2.add_row({"light", "2.0x / 15 min",
              format_double(r.zone_performance_factor[1], 3)});
  t2.print(std::cout);
  std::cout << "\nMax-min fairness per server: for as long as the sprint"
               " lasts (" << format_double(r.sprint_time.min(), 1)
            << " of the 15 burst\nminutes, until the stored energy runs"
               " out) the light zone is served in full and the\nheavy zone"
               " takes the rest; no breaker trips even at zero headroom.\n";
  bench::finish_obs(stream);
  return 0;
}
