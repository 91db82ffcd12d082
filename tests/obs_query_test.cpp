// Offline trace analysis (obs/query.h): loading the telemetry-schema JSONL
// traces (torn last lines skipped, anything else malformed rejected),
// scope/counter statistics, threshold-window extraction with step-function
// semantics, and byte-stable CSV output.
#include "obs/query.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "obs/sink.h"
#include "obs/trace.h"

namespace dcs::obs::query {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

/// A merged-timeline-style JSONL fixture: two sources, a span, scope
/// summaries on two lanes and paths, counters on two lanes, and non-event
/// lines that loaders must skip. The file is named after the running test:
/// ctest runs each test in its own process, in parallel, and one test's
/// cleanup must not remove the file another is reading.
std::string timeline_fixture() {
  const std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string path = temp_path("query_timeline_" + test + ".jsonl");
  write_file(
      path,
      "{\"t\":\"timeline\",\"timeline\":1,\"sources\":2}\n"
      "{\"t\":\"proc\",\"src\":\"shard0\",\"pid\":10}\n"
      // A span: its call is in the summaries already, so scopes skip it.
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"wall\",\"ph\":\"X\","
      "\"ts\":0,\"dur\":100,\"lane\":0,\"cat\":\"profile\",\"name\":\"work\"}\n"
      // "work" on two paths and lanes of shard0, once on shard1.
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"wall\",\"ph\":\"i\","
      "\"ts\":900,\"lane\":0,\"cat\":\"scope\",\"name\":\"work\",\"args\":"
      "{\"count\":1,\"total_us\":100,\"min_us\":100,\"max_us\":100}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"wall\",\"ph\":\"i\","
      "\"ts\":900,\"lane\":1,\"cat\":\"scope\",\"name\":\"task;work\",\"args\":"
      "{\"count\":1,\"total_us\":300,\"min_us\":300,\"max_us\":300}}\n"
      "{\"t\":\"ev\",\"src\":\"shard1\",\"domain\":\"wall\",\"ph\":\"i\","
      "\"ts\":900,\"lane\":0,\"cat\":\"scope\",\"name\":\"work\",\"args\":"
      "{\"count\":1,\"total_us\":50,\"min_us\":50,\"max_us\":50}}\n"
      // Lane 0: degree steps 1 -> 3 -> 3.5 -> 1 -> 2 -> 1.
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":0,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":10,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":3}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":20,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":3.5}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":30,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":40,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":2}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":50,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      // Lane 1 interleaves its own independent step function; grouping by
      // (src, lane) must keep it from shredding lane 0's windows.
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":15,\"lane\":1,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":35,\"lane\":1,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      "{\"t\":\"stack\",\"stack\":\"a;b\",\"count\":3}\n");
  return path;
}

TEST(ObsQuery, LoadsTimelineJsonlSkippingNonEventLines) {
  const std::string path = timeline_fixture();
  const TraceData trace = load_trace(path);
  EXPECT_EQ(trace.events.size(), 12u);
  EXPECT_EQ(trace.events[0].src, "shard0");
  EXPECT_EQ(trace.events[0].ph, 'X');
  EXPECT_EQ(trace.events[0].dur_us, 100.0);
  EXPECT_EQ(trace.events[2].name, "task;work");
  EXPECT_EQ(trace.events[2].args.size(), 4u);
  std::remove(path.c_str());
}

TEST(ObsQuery, ScopeStatsGroupBySourceAndName) {
  const std::string path = timeline_fixture();
  const std::vector<ScopeStat> stats = scope_stats(load_trace(path));
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].src, "shard0");
  EXPECT_EQ(stats[0].name, "work");
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_EQ(stats[0].total_us, 400.0);
  EXPECT_EQ(stats[0].mean_us(), 200.0);
  EXPECT_EQ(stats[0].min_us, 100.0);
  EXPECT_EQ(stats[0].max_us, 300.0);
  EXPECT_EQ(stats[1].src, "shard1");
  EXPECT_EQ(stats[1].count, 1u);
  std::remove(path.c_str());
}

TEST(ObsQuery, ScopeSummariesWithBadArgsAreRejected) {
  const std::string path = temp_path("query_bad_scope.jsonl");
  const auto summary = [](const std::string& args) {
    return "{\"t\":\"ev\",\"domain\":\"wall\",\"ph\":\"i\",\"ts\":0,"
           "\"lane\":0,\"cat\":\"scope\",\"name\":\"work\",\"args\":{" +
           args + "}}\n";
  };
  write_file(path, summary("\"count\":1,\"total_us\":5,\"max_us\":5"));
  EXPECT_THROW((void)scope_stats(load_trace(path)), std::invalid_argument);
  write_file(path, summary("\"count\":-3,\"total_us\":5,\"min_us\":5,"
                           "\"max_us\":5"));
  EXPECT_THROW((void)scope_stats(load_trace(path)), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(ObsQuery, CounterStatsAggregatePerTrack) {
  const std::string path = timeline_fixture();
  const std::vector<CounterStat> stats = counter_stats(load_trace(path));
  ASSERT_EQ(stats.size(), 1u);  // one (src, name) track across both lanes
  EXPECT_EQ(stats[0].src, "shard0");
  EXPECT_EQ(stats[0].name, "degree");
  EXPECT_EQ(stats[0].points, 8u);
  EXPECT_EQ(stats[0].min, 1.0);
  EXPECT_EQ(stats[0].max, 3.5);
  EXPECT_EQ(stats[0].last, 1.0);
  // Time-weighted: lane 0 holds 1, 3, 3.5, 1, 2 for 10 us each (its last
  // sample spans no time) and lane 1 holds 1 for 20 us: 125 over 70 us.
  EXPECT_NEAR(stats[0].mean, 125.0 / 70.0, 1e-12);
  std::remove(path.c_str());
}

TEST(ObsQuery, CounterMeanWeighsEachSampleByTheTimeItHolds) {
  const std::string path = temp_path("query_weighted.jsonl");
  const auto sample = [](const char* name, int lane, double ts, double v) {
    return "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"C\",\"ts\":" +
           std::to_string(ts) + ",\"lane\":" + std::to_string(lane) +
           ",\"name\":\"" + name + "\",\"args\":{\"value\":" +
           std::to_string(v) + "}}\n";
  };
  // A change-only track (1 held for 90 us, then 10 for 10 us) and the same
  // step function sampled every 10 us; a one-sample track on its own.
  std::string text = sample("sparse", 0, 0, 1) + sample("sparse", 0, 90, 10) +
                     sample("sparse", 0, 100, 10) + sample("single", 0, 5, 7);
  for (int i = 0; i <= 10; ++i) {
    text += sample("dense", 0, 10.0 * i, i < 9 ? 1.0 : 10.0);
  }
  write_file(path, text);
  const std::vector<CounterStat> stats = counter_stats(load_trace(path));
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].name, "dense");
  EXPECT_EQ(stats[0].points, 11u);
  EXPECT_DOUBLE_EQ(stats[0].mean, 1.9);
  EXPECT_EQ(stats[1].name, "single");
  EXPECT_EQ(stats[1].mean, 7.0) << "a one-sample track counts its value";
  EXPECT_EQ(stats[2].name, "sparse");
  EXPECT_EQ(stats[2].points, 3u) << "points are the emitted samples";
  EXPECT_DOUBLE_EQ(stats[2].mean, 1.9);
  EXPECT_EQ(stats[2].min, stats[0].min);
  EXPECT_EQ(stats[2].max, stats[0].max);
  EXPECT_EQ(stats[2].last, stats[0].last);
  std::remove(path.c_str());
}

TEST(ObsQuery, ThresholdWindowsFollowStepFunctionSemanticsPerLane) {
  const std::string path = timeline_fixture();
  const TraceData trace = load_trace(path);

  // Sprint spans: degree > 1. Lane 0 opens at the ts=10 sample and closes
  // when ts=30 takes effect, then reopens for the ts=40 sample closing at
  // 50. Lane 1 never exceeds 1 and contributes no windows.
  ThresholdQuery above;
  above.track = "degree";
  above.threshold = 1.0;
  above.below = false;
  std::vector<ThresholdWindow> windows = threshold_windows(trace, above);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].src, "shard0");
  EXPECT_EQ(windows[0].lane, 0u);
  EXPECT_EQ(windows[0].start_us, 10.0);
  EXPECT_EQ(windows[0].end_us, 30.0);
  EXPECT_EQ(windows[0].duration_us(), 20.0);
  EXPECT_EQ(windows[0].extreme, 3.5);
  EXPECT_EQ(windows[1].start_us, 40.0);
  EXPECT_EQ(windows[1].end_us, 50.0);
  EXPECT_EQ(windows[1].extreme, 2.0);

  // min_duration filters the short reopening.
  above.min_duration_us = 15.0;
  windows = threshold_windows(trace, above);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].extreme, 3.5);

  // below: degree < 2 — a window still open at the track's last sample
  // closes there. Lane 0: [0,10) and [30,40); the final sample at 50
  // (value 1) opens a window that closes at 50 with zero duration. Lane 1
  // is below throughout: [15, 35].
  ThresholdQuery below;
  below.track = "degree";
  below.threshold = 2.0;
  windows = threshold_windows(trace, below);
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].lane, 0u);
  EXPECT_EQ(windows[0].start_us, 0.0);
  EXPECT_EQ(windows[0].end_us, 10.0);
  EXPECT_EQ(windows[1].start_us, 30.0);
  EXPECT_EQ(windows[1].end_us, 40.0);
  EXPECT_EQ(windows[2].start_us, 50.0);
  EXPECT_EQ(windows[2].end_us, 50.0);
  EXPECT_EQ(windows[3].lane, 1u);
  EXPECT_EQ(windows[3].start_us, 15.0);
  EXPECT_EQ(windows[3].end_us, 35.0);

  EXPECT_THROW((void)threshold_windows(trace, ThresholdQuery{}),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(ObsQuery, LoadsSinkWrittenJsonlAndSurvivesTornTrailingLine) {
  const std::string path = temp_path("query_sink.jsonl");
  {
    JsonlStreamSink sink(path, {.buffer_bytes = 256});
    sink.write_lane_name(Domain::kSim, 0, "margins");
    TraceEvent e;
    e.phase = 'C';
    e.name = "margin";
    for (int i = 0; i < 6; ++i) {
      e.ts_us = static_cast<double>(i);
      e.args = {arg("value", static_cast<double>(i))};
      sink.write(e);
    }
    sink.finalize();
  }
  {
    // A crashed worker's torn tail: half a JSON object, no newline.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"C\",\"ts\":99,\"na";
  }
  const TraceData trace = load_trace(path);
  EXPECT_EQ(trace.events.size(), 6u) << "the torn line is skipped, not fatal";
  const std::vector<CounterStat> stats = counter_stats(trace);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].points, 6u);
  std::remove(path.c_str());
}

TEST(ObsQuery, CsvWritersAreByteStable) {
  const std::string path = timeline_fixture();
  const TraceData trace = load_trace(path);
  const auto render = [&] {
    std::ostringstream out;
    write_scope_csv(out, scope_stats(trace));
    write_counter_csv(out, counter_stats(trace));
    ThresholdQuery q;
    q.track = "degree";
    q.threshold = 1.0;
    q.below = false;
    write_window_csv(out, threshold_windows(trace, q));
    return out.str();
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  EXPECT_NE(first.find("src,name,count,total_us,mean_us,min_us,max_us\n"),
            std::string::npos);
  EXPECT_NE(first.find("src,lane,start_us,end_us,duration_us,extreme\n"),
            std::string::npos);
  EXPECT_NE(first.find("shard0,0,10,30,20,3.5\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsQuery, JsonlWritersAreByteStable) {
  const std::string path = timeline_fixture();
  const TraceData trace = load_trace(path);
  const auto render = [&] {
    std::ostringstream out;
    write_scope_jsonl(out, scope_stats(trace));
    write_counter_jsonl(out, counter_stats(trace));
    ThresholdQuery q;
    q.track = "degree";
    q.threshold = 1.0;
    q.below = false;
    write_window_jsonl(out, threshold_windows(trace, q));
    return out.str();
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  // One self-describing object per row, numbers in canonical form.
  EXPECT_NE(first.find("{\"src\":\"shard0\",\"name\":\"work\",\"count\":2"),
            std::string::npos);
  EXPECT_NE(first.find("\"start_us\":10,\"end_us\":30,\"duration_us\":20,"
                       "\"extreme\":3.5}"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsQuery, InstantEventsKeepTheirArgsInSortedOrder) {
  const std::string path = temp_path("query_instant_args.jsonl");
  write_file(path,
             "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"i\",\"ts\":5,"
             "\"lane\":0,\"cat\":\"decision\",\"name\":\"burst-start\","
             "\"args\":{\"id\":\"d0-1\",\"in_demand\":1.5,\"schema\":1,"
             "\"armed\":true}}\n"
             "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"C\",\"ts\":6,"
             "\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":2}}\n");
  const TraceData trace = load_trace(path);
  ASSERT_EQ(trace.events.size(), 2u);
  const QueryEvent& instant = trace.events[0];
  ASSERT_EQ(instant.args.size(), 4u);
  EXPECT_EQ(instant.args[0].first, "armed");
  EXPECT_EQ(instant.args[0].second, "true");
  EXPECT_EQ(instant.args[1].first, "id");
  EXPECT_EQ(instant.args[1].second, "d0-1");
  EXPECT_EQ(instant.args[2].second, "1.5");
  EXPECT_EQ(instant.args[3].first, "schema");
  // Counter events stay on the cheap path: value decoded, args not kept.
  EXPECT_TRUE(trace.events[1].args.empty());
  EXPECT_TRUE(trace.events[1].has_value);
  std::remove(path.c_str());
}

/// load_trace's error for `text`, or "" when it loads.
std::string load_error(const std::string& text) {
  // Named after the running test, which ctest may run next to another
  // test that writes this file.
  const std::string path = temp_path(
      std::string(
          ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
      "_query_reject.jsonl");
  write_file(path, text);
  std::string error;
  try {
    (void)load_trace(path);
  } catch (const std::invalid_argument& e) {
    error = e.what();
  }
  std::remove(path.c_str());
  return error;
}

TEST(ObsQuery, RejectsLinesOutsideTheSchemaNamingFileAndLine) {
  const std::string ev =
      "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"i\",\"ts\":1,"
      "\"lane\":0,\"cat\":\"c\",\"name\":\"n\"}\n";
  // A multi-line JSON document such as a Chrome trace-event file: its
  // first line is not JSON on its own.
  std::string error = load_error(
      "{\"displayTimeUnit\": \"ms\", \"events\": [\n"
      "  {\"ph\": \"i\", \"ts\": 1, \"pid\": 1, \"tid\": 0, \"name\": \"n\"}\n"
      "]}\n");
  EXPECT_NE(error.find("query_reject.jsonl:1:"), std::string::npos) << error;
  // A line of the old plain schema (no "t").
  error = load_error(ev +
                     "{\"domain\": \"sim\", \"ph\": \"i\", \"ts\": 2, "
                     "\"lane\": 0, \"cat\": \"c\", \"name\": \"n\"}\n");
  EXPECT_NE(error.find("query_reject.jsonl:2:"), std::string::npos) << error;
  // A damaged middle line, a non-object, a non-string "t", and an "ev"
  // line missing its timestamp.
  EXPECT_NE(load_error(ev + "{\"t\":\"ev\",\"dom\n" + ev).find(":2:"),
            std::string::npos);
  EXPECT_NE(load_error("[1, 2]\n").find(":1:"), std::string::npos);
  EXPECT_NE(load_error("{\"t\":3}\n").find(":1:"), std::string::npos);
  EXPECT_NE(load_error(ev + ev +
                       "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"i\"}\n")
                .find(":3:"),
            std::string::npos);
  // Unknown "t" types stay skipped, and only an unterminated last line is
  // forgiven.
  EXPECT_EQ(load_error("{\"t\":\"future\",\"x\":1}\n" + ev), "");
  EXPECT_EQ(load_error(ev + "{\"t\":\"ev\",\"dom"), "");
  EXPECT_EQ(load_error(ev + "not json at all"), "");
}

TEST(ObsQuery, RejectsLanesOutsideTheUint32RangeNamingFileAndLine) {
  const auto ev = [](const std::string& lane) {
    return "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"i\",\"ts\":1,"
           "\"lane\":" + lane + ",\"cat\":\"c\",\"name\":\"n\"}\n";
  };
  const auto lane_line = [](const std::string& lane) {
    return "{\"t\":\"lane\",\"domain\":\"sim\",\"lane\":" + lane +
           ",\"name\":\"n\"}\n";
  };
  // A lane is a whole number in [0, 2^32), on "ev" and "lane" lines alike.
  for (const char* bad : {"-1", "1e999", "-1e999", "4294967296", "0.5"}) {
    EXPECT_NE(load_error(ev("0") + ev(bad)).find("query_reject.jsonl:2:"),
              std::string::npos)
        << bad;
    EXPECT_NE(load_error(ev("0") + lane_line(bad)).find(":2:"),
              std::string::npos)
        << bad;
  }
  EXPECT_EQ(load_error(ev("4294967295") + lane_line("4294967295")), "");
}

TEST(ObsQuery, LaneLinesNameEachLaneWithItsLastName) {
  const std::string path = temp_path("query_lane_names.jsonl");
  write_file(path,
             "{\"t\":\"lane\",\"domain\":\"sim\",\"lane\":0,\"name\":\"a\"}\n"
             "{\"t\":\"lane\",\"src\":\"shard1\",\"domain\":\"wall\","
             "\"lane\":2,\"name\":\"worker-2\"}\n"
             "{\"t\":\"lane\",\"domain\":\"sim\",\"lane\":0,\"name\":\"b\"}\n");
  const TraceData trace = load_trace(path);
  EXPECT_TRUE(trace.events.empty());
  using Key = std::tuple<std::string, std::string, std::uint32_t>;
  EXPECT_EQ(trace.lane_names,
            (std::map<Key, std::string>{{{"", "sim", 0}, "b"},
                                        {{"shard1", "wall", 2}, "worker-2"}}));
  std::remove(path.c_str());
}

TEST(ObsQuery, RejectsUnreadableAndHandlesEmptyInput) {
  EXPECT_THROW((void)load_trace("/nonexistent-dir/trace.json"),
               std::invalid_argument);
  const std::string path = temp_path("query_empty.jsonl");
  write_file(path, "  \n\t\n");
  EXPECT_TRUE(load_trace(path).events.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcs::obs::query
