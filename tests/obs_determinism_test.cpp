// Determinism contract of the observability layer: sim-domain trace events
// (including decision records, obs/decision.h) collected through per-task
// tracers and merged in task order into a streaming tracer, as a traced
// bench writes them, are byte-identical regardless of how many worker
// threads executed the sweep or how it was sharded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/datacenter.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "faults/schedule.h"
#include "jsonl_stream.h"
#include "obs/counters.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "sim/recorder.h"
#include "util/json.h"
#include "workload/yahoo_trace.h"

namespace dcs {
namespace {

using core::DataCenter;
using core::DataCenterConfig;
using core::GreedyStrategy;
using core::RunOptions;
using faults::Fault;
using faults::FaultKind;
using faults::FaultSchedule;

FaultSchedule scenario_schedule(std::size_t which) {
  FaultSchedule s;
  if (which == 1) {
    s.add(Fault{FaultKind::kUpsBankOutage, Duration::minutes(7),
                Duration::minutes(13), 0.4, faults::SensorChannel::kDemand});
  } else if (which == 2) {
    s.add(Fault{FaultKind::kChillerFailure, Duration::minutes(9),
                Duration::minutes(13), 0.4, faults::SensorChannel::kDemand});
  }
  return s;
}

/// The "lane" field of every line of a JSONL trace, in file order.
std::vector<double> line_lanes(const std::string& jsonl) {
  std::vector<double> lanes;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    lanes.push_back(json::parse(line).at("lane").as_number());
  }
  return lanes;
}

/// Runs the faulted scenario sweep on `threads` workers and returns the
/// JSONL its task tracers stream when merged in task order.
std::string traced_sweep_jsonl(std::size_t threads) {
  workload::YahooTraceParams yp;
  yp.burst_degree = 3.2;
  yp.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(yp);

  DataCenterConfig config;
  config.fleet.pdu_count = 2;

  exp::SweepSpec spec("obs_determinism");
  spec.add_axis("scenario", {"nominal", "ups-outage", "chiller-loss"});

  std::vector<obs::Tracer> task_tracers(spec.tasks().size());
  const exp::SweepRun run = exp::run_sweep(
      spec, {"perf"},
      [&](const exp::SweepSpec::Task& task) {
        obs::Tracer& tracer = task_tracers[task.index];
        tracer.set_lane(static_cast<std::uint32_t>(task.index));
        obs::DecisionLog decisions(&tracer);
        const FaultSchedule schedule = scenario_schedule(task.level[0]);
        DataCenter dc(config);
        GreedyStrategy greedy;
        RunOptions opts;
        opts.tracer = &tracer;
        opts.decisions = &decisions;
        if (!schedule.empty()) opts.faults = &schedule;
        const core::RunResult r = dc.run(trace, &greedy, opts);
        return std::vector<double>{r.performance_factor};
      },
      {.threads = threads});
  EXPECT_EQ(run.rows.size(), task_tracers.size());

  test::JsonlStream stream("obs_determinism");
  for (const exp::SweepSpec::Task& task : spec.tasks()) {
    stream.tracer().name_lane(obs::Domain::kSim,
                              static_cast<std::uint32_t>(task.index),
                              spec.label(task, 0));
    stream.tracer().merge_from(std::move(task_tracers[task.index]));
  }
  return stream.bytes();
}

TEST(ObsDeterminism, MergedTraceIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = traced_sweep_jsonl(1);
  const std::string parallel = traced_sweep_jsonl(8);
  EXPECT_EQ(serial, parallel);

  // The stream actually exercises the instrumented paths: controller phase
  // transitions and the fault edges' decision records must both appear.
  EXPECT_NE(serial.find("\"phase\""), std::string::npos);
  EXPECT_NE(serial.find("\"fault-inject\""), std::string::npos);
  EXPECT_NE(serial.find("\"fault-clear\""), std::string::npos);
  EXPECT_FALSE(serial.empty());

  // Task order: each task's lane line, then its events, lane by lane.
  const std::vector<double> lanes = line_lanes(serial);
  EXPECT_TRUE(std::is_sorted(lanes.begin(), lanes.end()));
  EXPECT_EQ(std::set<double>(lanes.begin(), lanes.end()),
            (std::set<double>{0.0, 1.0, 2.0}));
  EXPECT_EQ(serial.rfind("{\"t\":\"lane\",\"domain\":\"sim\",\"lane\":0,", 0),
            0u);
}

TEST(ObsDeterminism, RepeatedRunsAreByteIdentical) {
  const std::string a = traced_sweep_jsonl(4);
  const std::string b = traced_sweep_jsonl(4);
  EXPECT_EQ(a, b);
}

/// Runs the faulted scenario sweep with decision emission on, optionally
/// split into `shards` sequentially-executed shard slices (each task still
/// lands in its task-indexed tracer slot, so the merge is shard-agnostic),
/// and returns the JSONL the task tracers stream when merged in task order.
std::string decision_sweep_jsonl(std::size_t threads, std::size_t shards) {
  workload::YahooTraceParams yp;
  yp.burst_degree = 3.2;
  yp.burst_duration = Duration::minutes(15);
  const TimeSeries trace = workload::generate_yahoo_trace(yp);

  DataCenterConfig config;
  config.fleet.pdu_count = 2;

  exp::SweepSpec spec("decision_determinism");
  spec.add_axis("scenario", {"nominal", "ups-outage", "chiller-loss"});

  std::vector<obs::Tracer> task_tracers(spec.tasks().size());
  const auto task_fn = [&](const exp::SweepSpec::Task& task) {
    obs::Tracer& tracer = task_tracers[task.index];
    tracer.set_lane(static_cast<std::uint32_t>(task.index));
    obs::DecisionLog decisions(&tracer);
    const FaultSchedule schedule = scenario_schedule(task.level[0]);
    DataCenter dc(config);
    GreedyStrategy greedy;
    RunOptions opts;
    opts.tracer = &tracer;
    opts.decisions = &decisions;
    if (!schedule.empty()) opts.faults = &schedule;
    const core::RunResult r = dc.run(trace, &greedy, opts);
    return std::vector<double>{r.performance_factor};
  };
  for (std::size_t s = 0; s < shards; ++s) {
    exp::RunnerOptions options;
    options.threads = threads;
    if (shards > 1) options.shard = exp::Shard{s, shards};
    exp::run_sweep(spec, {"perf"}, task_fn, options);
  }

  test::JsonlStream stream("decision_determinism");
  for (const exp::SweepSpec::Task& task : spec.tasks()) {
    stream.tracer().merge_from(std::move(task_tracers[task.index]));
  }
  return stream.bytes();
}

TEST(ObsDeterminism, DecisionStreamIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = decision_sweep_jsonl(1, 1);
  const std::string parallel = decision_sweep_jsonl(8, 1);
  EXPECT_EQ(serial, parallel);

  // The stream actually carries decision records with resolvable causes.
  EXPECT_NE(serial.find("\"cat\":\"decision\""), std::string::npos);
  EXPECT_NE(serial.find("\"sprint-onset\""), std::string::npos);
  EXPECT_NE(serial.find("\"fault-inject\""), std::string::npos);
  EXPECT_NE(serial.find("\"cause\""), std::string::npos);
}

TEST(ObsDeterminism, DecisionStreamIsByteIdenticalShardedVsUnsharded) {
  const std::string unsharded = decision_sweep_jsonl(2, 1);
  const std::string sharded = decision_sweep_jsonl(2, 2);
  EXPECT_EQ(unsharded, sharded);
}

/// Builds a small recorder, exports its channels as counter tracks through
/// per-task tracers on `threads` workers, and returns the JSONL they
/// stream when merged in task order.
std::string counter_sweep_jsonl(std::size_t threads) {
  exp::SweepSpec spec("counter_determinism");
  spec.add_axis("run", {"a", "b", "c", "d"});

  std::vector<obs::Tracer> task_tracers(spec.tasks().size());
  exp::run_sweep(
      spec, {"ok"},
      [&](const exp::SweepSpec::Task& task) {
        sim::Recorder recorder;
        recorder.start({"ups_soc", "room_c"}, 50);
        const double offset = static_cast<double>(task.index);
        for (int i = 0; i < 50; ++i) {
          recorder.append(Duration::seconds(i),
                          std::vector<double>{1.0 - 0.01 * i + offset,
                                              23.0 + 0.05 * i});
        }
        obs::Tracer& tracer = task_tracers[task.index];
        tracer.set_lane(static_cast<std::uint32_t>(task.index));
        obs::export_counters(recorder, tracer,
                             {.channels = {"ups_soc", "room_c", "absent"}});
        return std::vector<double>{1.0};
      },
      {.threads = threads});

  test::JsonlStream stream("counter_determinism");
  for (const exp::SweepSpec::Task& task : spec.tasks()) {
    stream.tracer().merge_from(std::move(task_tracers[task.index]));
  }
  return stream.bytes();
}

TEST(ObsDeterminism, CounterTracksAreByteIdenticalAcrossThreadCounts) {
  const std::string serial = counter_sweep_jsonl(1);
  const std::string parallel = counter_sweep_jsonl(8);
  EXPECT_EQ(serial, parallel);

  // Round trip: every line is a JSONL event whose counter samples carry
  // the recorded sample values.
  std::istringstream lines(serial);
  std::string line;
  std::size_t counters = 0;
  bool found_first_room = false;
  while (std::getline(lines, line)) {
    const json::Value e = json::parse(line);
    EXPECT_EQ(e.at("t").as_string(), "ev");
    if (e.at("ph").as_string() != "C") continue;
    ++counters;
    EXPECT_EQ(e.at("cat").as_string(), "recorder");
    if (e.at("name").as_string() == "room_c" &&
        e.at("ts").as_number() == 0.0) {
      EXPECT_DOUBLE_EQ(e.at("args").at("value").as_number(), 23.0);
      found_first_room = true;
    }
  }
  // 4 tasks x 2 present channels x 50 samples, every one a change;
  // "absent" is skipped.
  EXPECT_EQ(counters, 4u * 2u * 50u);
  EXPECT_TRUE(found_first_room);
}

}  // namespace
}  // namespace dcs
