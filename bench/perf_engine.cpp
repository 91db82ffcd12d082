// Simulator performance microbenchmarks (google-benchmark): the cost of the
// inner loops — breaker thermal stepping, fleet operating-point solving,
// one controller step on the MS trace's noisy demand, the fixed cost of a
// run (plant build, controller construction, one step), a full 30-minute
// experiment run, the same run with every observability layer on, the
// serial vs parallel oracle search on the src/exp runner, fig09's
// upper-bound table, and the request-level serving layer's ticks over
// fig12's burst.
// The PDU-count arguments show what the paper's 909-PDU facility costs
// next to a small one.
//
// Unless --benchmark_out is given, results are also written as a
// machine-readable BENCH_perf_engine.json perf record (wall times, items/s)
// so the repo accumulates a perf trajectory across commits.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compute/fleet.h"
#include "core/datacenter.h"
#include "core/oracle.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "power/circuit_breaker.h"
#include "serving/serving_layer.h"
#include "workload/ms_trace.h"
#include "workload/yahoo_trace.h"

namespace {

using namespace dcs;

/// trace=1: BM_FullMsRun records sim trace events into a Tracer each
/// iteration, so the perf gate can bound the tracing overhead (CI compares
/// a traced run against an untraced baseline on the same machine).
bool g_traced = false;

void BM_BreakerStep(benchmark::State& state) {
  power::CircuitBreaker cb("cb", {.rated = Power::kilowatts(13.75)});
  const Power load = Power::kilowatts(15.0);
  for (auto _ : state) {
    cb.apply_load(load, Duration::seconds(1));
    if (cb.tripped()) cb.reset();
    benchmark::DoNotOptimize(cb.thermal_state());
  }
}
BENCHMARK(BM_BreakerStep);

void BM_FleetOperate(benchmark::State& state) {
  const compute::Fleet fleet;
  double demand = 0.5;
  for (auto _ : state) {
    demand = demand > 3.5 ? 0.5 : demand + 0.1;
    benchmark::DoNotOptimize(fleet.operate(demand, 4.0));
  }
}
BENCHMARK(BM_FleetOperate);

void BM_ControllerStep(benchmark::State& state) {
  core::DataCenterConfig config;
  config.fleet.pdu_count = static_cast<std::size_t>(state.range(0));
  compute::Fleet fleet(config.fleet);
  power::PowerTopology topology(config.topology_params());
  thermal::TesTank tes("tes", config.tes_params());
  thermal::CoolingPlant cooling(config.cooling_params(&tes));
  thermal::RoomModel room(config.room_params());
  core::GreedyStrategy greedy;
  core::SprintingController controller(
      config, {&fleet, &topology, &cooling, &tes, &room}, &greedy,
      core::Mode::kControlled);
  // Cycle through the MS trace's demand: fresh noise every sample, so every
  // step changes the plant's per-PDU loads the way a real run does.
  const TimeSeries trace = workload::generate_ms_trace();
  std::vector<double> demand;
  for (const Sample& sample : trace.samples()) demand.push_back(sample.value);
  std::size_t i = 0;
  Duration now = Duration::zero();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        controller.step(now, demand[i], Duration::seconds(1)));
    i = i + 1 == demand.size() ? 0 : i + 1;
    now += Duration::seconds(1);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(config.fleet.pdu_count));
}
BENCHMARK(BM_ControllerStep)->Arg(1)->Arg(8)->Arg(64)->Arg(909);

void BM_PlantSetup(benchmark::State& state) {
  // One-control-period DataCenter::run: plant build, controller
  // construction and a single step — the fixed cost every run pays.
  core::DataCenterConfig config;
  config.fleet.pdu_count = static_cast<std::size_t>(state.range(0));
  core::DataCenter dc(config);
  const TimeSeries tick = workload::generate_ms_trace().slice(
      Duration::zero(), config.control_period);
  core::GreedyStrategy greedy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.run(tick, &greedy));
  }
}
BENCHMARK(BM_PlantSetup)->Arg(8)->Arg(909)->Arg(4096);

void BM_FullMsRun(benchmark::State& state) {
  core::DataCenterConfig config;
  config.fleet.pdu_count = static_cast<std::size_t>(state.range(0));
  core::DataCenter dc(config);
  const TimeSeries trace = workload::generate_ms_trace();
  core::GreedyStrategy greedy;
  obs::Tracer tracer;
  for (auto _ : state) {
    if (g_traced) {
      // Tracer + decision emission — record= stays off so the gate
      // measures the tracing hot path (edge-triggered instants plus
      // DecisionRecords), not the recorder's per-tick channel appends.
      tracer.clear();
      core::RunOptions opts;
      opts.tracer = &tracer;
      obs::DecisionLog decisions(&tracer);
      opts.decisions = &decisions;
      benchmark::DoNotOptimize(dc.run(trace, &greedy, opts));
    } else {
      benchmark::DoNotOptimize(dc.run(trace, &greedy));
    }
  }
}
// 909 is the paper's full fleet. The plant is one weighted PDU group, so a
// 909-PDU run should cost about what a 2-PDU run does; this arg locks that
// into the baseline.
BENCHMARK(BM_FullMsRun)->Arg(2)->Arg(8)->Arg(909)->Unit(benchmark::kMillisecond);

void BM_TracedRun(benchmark::State& state) {
  // BM_FullMsRun as a traced bench runs it: the recorder, a tracer and the
  // decision log on, the default counter channels exported as change-only
  // tracks after the run, and the stream sink (the JSONL trace) writing
  // into a scratch directory that each iteration removes. Items are trace
  // events.
  core::DataCenterConfig config;
  config.fleet.pdu_count = static_cast<std::size_t>(state.range(0));
  core::DataCenter dc(config);
  const TimeSeries trace = workload::generate_ms_trace();
  core::GreedyStrategy greedy;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("perf_engine_traced_run-" + std::to_string(::getpid()));
  Config args;
  args.set("trace", dir.string());
  obs::CounterExportOptions counters;
  counters.channels = bench::kDefaultCounterChannels;
  std::int64_t events = 0;
  for (auto _ : state) {
    std::filesystem::create_directories(dir);
    bench::StreamTraceSinks stream = bench::maybe_stream_sinks(args, "run");
    obs::Tracer tracer(stream.sink());
    tracer.name_lane(obs::Domain::kSim, 0, "greedy/ms");
    obs::DecisionLog decisions(&tracer);
    core::RunOptions opts;
    opts.record = true;
    opts.tracer = &tracer;
    opts.decisions = &decisions;
    const core::RunResult run = dc.run(trace, &greedy, opts);
    benchmark::DoNotOptimize(run.performance_factor);
    obs::export_counters(run.recorder, tracer, counters);
    stream.finalize();
    events += static_cast<std::int64_t>(tracer.count(obs::Domain::kSim));
    std::filesystem::remove_all(dir);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_TracedRun)->Arg(909)->Unit(benchmark::kMillisecond);

void BM_OracleSearch(benchmark::State& state) {
  // Args = {worker threads for the candidate sweep, PDUs}: the serial vs
  // parallel speedup of the src/exp runner, and the search at the paper's
  // 909 PDUs next to a 2-PDU plant.
  core::DataCenterConfig config;
  config.fleet.pdu_count = static_cast<std::size_t>(state.range(1));
  core::DataCenter dc(config);
  const TimeSeries trace = workload::generate_ms_trace();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::oracle_search(dc, trace, 6, threads));
  }
}
BENCHMARK(BM_OracleSearch)
    ->Args({1, 2})
    ->Args({4, 2})
    ->Args({8, 2})
    ->Args({1, 909})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_UpperBoundTable(benchmark::State& state) {
  // Args = {worker threads for the candidate runs, PDUs}: fig09's 5 x 5
  // (burst duration x max degree) table at core stride 4, one oracle
  // search per degree over its five flat-topped Yahoo bursts.
  core::DataCenterConfig config;
  config.fleet.pdu_count = static_cast<std::size_t>(state.range(1));
  core::DataCenter dc(config);
  const std::vector<Duration> durations = {
      Duration::minutes(1), Duration::minutes(5), Duration::minutes(10),
      Duration::minutes(15), Duration::minutes(25)};
  const std::vector<double> degrees = {1.5, 2.0, 2.6, 3.0, 3.6};
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_upper_bound_table(
        dc, durations, degrees, workload::YahooTraceParams{}, 4, threads));
  }
}
BENCHMARK(BM_UpperBoundTable)
    ->Args({1, 909})
    ->Args({3, 909})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// fig12's Yahoo 3.2x / 15-min burst and the capacity degree a Greedy run
/// realizes on it, one per control period. Against that degree the burst
/// overloads the servers and the quiet hours do not, so a pass meets both
/// stationary and fluid-overload ticks.
struct ServingInputs {
  TimeSeries trace;
  std::vector<double> degrees;
  Duration period;
};

const ServingInputs& serving_inputs() {
  static const ServingInputs inputs = [] {
    ServingInputs in;
    workload::YahooTraceParams params;
    params.burst_degree = 3.2;
    params.burst_duration = Duration::minutes(15);
    in.trace = workload::generate_yahoo_trace(params);
    const core::DataCenterConfig config;
    in.period = config.control_period;
    core::DataCenter dc(config);
    core::GreedyStrategy greedy;
    core::RunOptions opts;
    opts.on_step = [&in](Duration, Duration, const core::StepResult& step) {
      in.degrees.push_back(step.degree);
    };
    (void)dc.run(in.trace, &greedy, opts);
    return in;
  }();
  return inputs;
}

void BM_ServingTick(benchmark::State& state, double rps, std::size_t servers,
                    const char* placement) {
  // An iteration ticks a fresh layer through the whole trace, so every
  // iteration weighs quiet, burst and drain ticks alike; the `tick`
  // counter is the time per control period. Items are offered requests.
  const ServingInputs& in = serving_inputs();
  serving::ServingParams params;
  params.peak_rps = rps;
  params.servers = servers;
  params.placement = placement;
  params.demand = &in.trace;
  std::size_t offered = 0;
  for (auto _ : state) {
    serving::ServingLayer layer(params);
    Duration now = Duration::zero();
    for (const double degree : in.degrees) {
      layer.set_capacity_degree(degree);
      layer.tick(now, in.period);
      now += in.period;
    }
    offered += layer.offered_total();
    benchmark::DoNotOptimize(layer.latency().p99());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(offered));
  state.counters["tick"] = benchmark::Counter(
      static_cast<double>(in.degrees.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

/// BM_ServingTick/{rps}x{servers}x{placement} over fig12's default rate and
/// ten times it, its default 8 servers and 512, and every placement.
void register_serving_ticks() {
  for (const int rps : {400, 4000}) {
    for (const std::size_t servers : {8, 512}) {
      for (const char* placement : {"round_robin", "jsq"}) {
        const std::string name = "BM_ServingTick/" + std::to_string(rps) +
                                 "x" + std::to_string(servers) + "x" +
                                 placement;
        benchmark::RegisterBenchmark(name.c_str(), BM_ServingTick,
                                     static_cast<double>(rps), servers,
                                     placement)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Record how *this* binary was compiled, distinct from the system
  // google-benchmark library's own "library_build_type" (which reflects the
  // distro package, not our flags). The perf gate refuses to compare records
  // whose dcs_build_type disagrees — debug timings gate nothing.
#ifdef NDEBUG
  benchmark::AddCustomContext("dcs_build_type", "release");
#else
  benchmark::AddCustomContext("dcs_build_type", "debug");
#endif
  // Default a JSON perf record next to the console report; explicit
  // --benchmark_out flags win. perf=<dir> (the other benches' knob) routes
  // the record into <dir>/BENCH_perf_engine.json for the perf gate.
  std::vector<char*> args;
  std::string perf_dir;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "perf=", 5) == 0) {
      perf_dir = argv[i] + 5;
    } else if (std::strncmp(argv[i], "trace=", 6) == 0) {
      g_traced = std::strcmp(argv[i] + 6, "0") != 0;
    } else {
      args.push_back(argv[i]);
    }
  }
  const bool has_out = std::any_of(args.begin(), args.end(), [](const char* a) {
    return std::strncmp(a, "--benchmark_out", 15) == 0;
  });
  std::string out_flag =
      "--benchmark_out=" +
      (perf_dir.empty() ? std::string("BENCH_perf_engine.json")
                        : perf_dir + "/BENCH_perf_engine.json");
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  register_serving_ticks();
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
