// Change-only counter tracks (obs/counters.h): a track holds only the
// samples that change it, and nothing is lost. Step-expanding an exported
// track over the series' times gives back every finite sample bit for bit,
// and on a faulted fig09-shaped run every trace_query answer equals the
// one a per-sample export gives.
#include "obs/counters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/datacenter.h"
#include "counter_tracks.h"
#include "faults/schedule.h"
#include "jsonl_stream.h"
#include "obs/decision.h"
#include "obs/query.h"
#include "obs/trace.h"
#include "sim/recorder.h"
#include "workload/ms_trace.h"

namespace dcs {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TimeSeries series_of(const std::vector<double>& values) {
  TimeSeries s;
  for (std::size_t i = 0; i < values.size(); ++i) {
    s.push_back(Duration::seconds(static_cast<double>(i)), values[i]);
  }
  return s;
}

/// Exports `values` as one track and checks the round trip; returns the
/// number of events the track holds.
std::size_t round_trip(const std::vector<double>& values) {
  const TimeSeries series = series_of(values);
  obs::Tracer tracer;
  obs::export_counter_track(tracer, "recorder", "x", series);
  EXPECT_TRUE(test::same_bits(test::step_expand(tracer.events(), "x", series),
                              test::held_samples(series)));
  return tracer.events().size();
}

TEST(ObsCounters, FlatSeriesKeepsItsFirstAndLastSample) {
  EXPECT_EQ(round_trip(std::vector<double>(100, 0.75)), 2u);
}

TEST(ObsCounters, OneSampleIsOneEvent) { EXPECT_EQ(round_trip({3.5}), 1u); }

TEST(ObsCounters, AllNaNSeriesEmitsNothing) {
  EXPECT_EQ(round_trip({kNaN, kNaN, kNaN}), 0u);
  EXPECT_EQ(round_trip({}), 0u);
}

TEST(ObsCounters, NaNGapsHoldTheValueBeforeThem) {
  // The gap between the two 1.0 samples emits nothing; the value after it
  // equals the one before it, so it is not re-emitted either. The trailing
  // NaNs leave the last finite sample as the track's end.
  EXPECT_EQ(round_trip({kNaN, 1.0, kNaN, kNaN, 1.0, 2.0, kNaN, 2.0, 3.0,
                        std::numeric_limits<double>::infinity(), kNaN}),
            3u);
}

TEST(ObsCounters, NegativeZeroAfterZeroIsAChange) {
  // Bit patterns, not ==: -0.0 == 0.0, yet a reader must see the sign.
  EXPECT_EQ(round_trip({0.0, 0.0, -0.0, -0.0, 0.0}), 3u);
}

TEST(ObsCounters, LastSampleEqualToTheOneBeforeIsStillEmitted) {
  EXPECT_EQ(round_trip({1.0, 2.0, 2.0}), 3u);
  EXPECT_EQ(round_trip({1.0, 2.0, 2.0, kNaN}), 3u);
}

TEST(ObsCounters, EveryDistinctStepIsKept) {
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(i % 7 < 3 ? 1.0 : 0.5 * i);
  // Seven full runs of three 1.0s each drop two repeats.
  EXPECT_EQ(round_trip(values), 50u - 7u * 2u);
}

// -- a faulted fig09-shaped run: change-only vs per-sample --------------------

const std::vector<std::string> kChannels = {
    "ups_soc", "tes_soc", "cb_trip_margin_s", "room_c", "degree", "cooling_mw"};

/// The export before change-only tracks: one event per finite sample.
void export_every_sample(const sim::Recorder& recorder, obs::Tracer& tracer) {
  for (const std::string& channel : kChannels) {
    if (!recorder.has(channel)) continue;
    const TimeSeries series = recorder.series(channel);
    for (const Sample& s : series.samples()) {
      if (!std::isfinite(s.value)) continue;
      obs::TraceEvent e;
      e.phase = 'C';
      e.ts_us = s.time.sec() * 1e6;
      e.lane = tracer.lane();
      e.cat = "recorder";
      e.name = channel;
      e.args = {obs::arg("value", s.value)};
      tracer.append(std::move(e));
    }
  }
}

struct Traces {
  obs::query::TraceData change_only;
  obs::query::TraceData per_sample;
};

/// Streams `tracer` as a traced bench does and loads the file back.
obs::query::TraceData load_written(obs::Tracer&& tracer,
                                   const std::string& name) {
  test::JsonlStream stream(name);
  stream.tracer().merge_from(std::move(tracer));
  (void)stream.bytes();
  return obs::query::load_trace(stream.path());
}

/// fig09's MS trace and canonical fault pair, one lane per strategy, with
/// the recorder, tracer and decision log on; both exports of every lane's
/// recorder, written and loaded back as trace_query would.
const Traces& fig09_traces() {
  static const Traces traces = [] {
    core::DataCenterConfig config;
    config.fleet.pdu_count = 2;
    const core::DataCenter dc(config);
    const TimeSeries trace = workload::generate_ms_trace();
    faults::FaultSchedule schedule;
    schedule.add(faults::Fault{faults::FaultKind::kUpsBankOutage,
                               Duration::minutes(10), Duration::minutes(16),
                               0.4, faults::SensorChannel::kDemand});
    schedule.add(faults::Fault{faults::FaultKind::kChillerDegradedCop,
                               Duration::minutes(8), Duration::minutes(20),
                               0.35, faults::SensorChannel::kDemand});
    core::GreedyStrategy greedy;
    core::ConstantBoundStrategy bound15(1.5);
    core::ConstantBoundStrategy bound20(2.0);
    core::ConstantBoundStrategy bound30(3.0);
    const std::vector<core::Strategy*> strategies = {&greedy, &bound15,
                                                     &bound20, &bound30};
    obs::CounterExportOptions counters;
    counters.channels = kChannels;
    obs::Tracer change_only;
    obs::Tracer per_sample;
    for (std::size_t lane = 0; lane < strategies.size(); ++lane) {
      obs::Tracer events;
      events.set_lane(static_cast<std::uint32_t>(lane));
      obs::DecisionLog decisions(&events);
      core::RunOptions opts;
      opts.faults = &schedule;
      opts.record = true;
      opts.tracer = &events;
      opts.decisions = &decisions;
      core::DataCenter run_dc(dc.config());
      const core::RunResult run = run_dc.run(trace, strategies[lane], opts);
      obs::Tracer a = events;
      obs::export_counters(run.recorder, a, counters);
      change_only.merge_from(std::move(a));
      obs::Tracer b = events;
      export_every_sample(run.recorder, b);
      per_sample.merge_from(std::move(b));
    }
    EXPECT_LT(change_only.events().size(), per_sample.events().size());
    return Traces{load_written(std::move(change_only), "counters_change_only"),
                  load_written(std::move(per_sample), "counters_per_sample")};
  }();
  return traces;
}

TEST(ObsCounters, ThresholdWindowsMatchThePerSampleExport) {
  const Traces& t = fig09_traces();
  const std::vector<obs::query::ThresholdQuery> queries = {
      {"degree", 1.0, false, 0.0},       {"cb_trip_margin_s", 120.0, true, 0.0},
      {"ups_soc", 0.9, true, 0.0},       {"tes_soc", 0.5, true, 0.0},
      {"room_c", 25.5, false, 0.0},      {"cooling_mw", 0.05, false, 6e7},
      {"degree", 2.0, true, 0.0}};
  std::size_t windows = 0;
  for (const obs::query::ThresholdQuery& q : queries) {
    const auto a = obs::query::threshold_windows(t.change_only, q);
    const auto b = obs::query::threshold_windows(t.per_sample, q);
    ASSERT_EQ(a.size(), b.size()) << q.track << " " << q.threshold;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].lane, b[i].lane);
      EXPECT_EQ(a[i].start_us, b[i].start_us);
      EXPECT_EQ(a[i].end_us, b[i].end_us);
      EXPECT_EQ(a[i].extreme, b[i].extreme);
    }
    windows += a.size();
  }
  EXPECT_GT(windows, 10u) << "the queries must find windows to compare";
}

TEST(ObsCounters, MonotoneChecksMatchThePerSampleExport) {
  const Traces& t = fig09_traces();
  for (const std::string& track : kChannels) {
    const auto a = obs::query::counter_monotone(t.change_only, track);
    const auto b = obs::query::counter_monotone(t.per_sample, track);
    ASSERT_EQ(a.size(), b.size()) << track;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].lane, b[i].lane);
      EXPECT_EQ(a[i].ts_us, b[i].ts_us);
      EXPECT_EQ(a[i].prev, b[i].prev);
      EXPECT_EQ(a[i].value, b[i].value);
    }
  }
  EXPECT_FALSE(obs::query::counter_monotone(t.change_only, "ups_soc").empty());
}

TEST(ObsCounters, DecisionsExplainAndAuditMatchThePerSampleExport) {
  const Traces& t = fig09_traces();
  const auto a = obs::query::decision_records(t.change_only);
  const auto b = obs::query::decision_records(t.per_sample);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].lane, b[i].lane);
    EXPECT_EQ(a[i].ts_us, b[i].ts_us);
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].cause, b[i].cause);
    const obs::query::ExplainChain ca = obs::query::explain_record(a, i);
    const obs::query::ExplainChain cb = obs::query::explain_record(b, i);
    EXPECT_EQ(ca.chain, cb.chain);
    EXPECT_EQ(ca.dangling, cb.dangling);
  }
  const auto ra = obs::query::audit(a);
  const auto rb = obs::query::audit(b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].rule, rb[i].rule);
    EXPECT_EQ(ra[i].count, rb[i].count);
    EXPECT_EQ(ra[i].roots, rb[i].roots);
    EXPECT_EQ(ra[i].resolved, rb[i].resolved);
    EXPECT_EQ(ra[i].dangling, rb[i].dangling);
  }
}

TEST(ObsCounters, CounterStatsMatchThePerSampleExport) {
  const Traces& t = fig09_traces();
  const auto a = obs::query::counter_stats(t.change_only);
  const auto b = obs::query::counter_stats(t.per_sample);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), kChannels.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_LE(a[i].points, b[i].points);
    EXPECT_EQ(a[i].min, b[i].min) << a[i].name;
    EXPECT_EQ(a[i].max, b[i].max) << a[i].name;
    EXPECT_EQ(a[i].last, b[i].last) << a[i].name;
    EXPECT_NEAR(a[i].mean, b[i].mean, 1e-12 * std::abs(b[i].mean))
        << a[i].name;
  }
}

}  // namespace
}  // namespace dcs
