// Cross-process timeline merge (exp/timeline.h): source discovery and
// ordering, wall-clock alignment onto the shared epoch, per-source Perfetto
// processes, folded-stack aggregation, headerless-stream degradation, and
// the byte-identical re-merge the dispatcher's restart story depends on.
#include "exp/timeline.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/query.h"
#include "util/json.h"

namespace dcs::exp {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/timeline_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& text) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::binary);
  out << text;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string header(const std::string& name, int pid,
                   std::int64_t epoch_unix_us) {
  std::ostringstream out;
  out << "{\"t\":\"header\",\"telemetry\":1,\"name\":\"" << name
      << "\",\"pid\":" << pid << ",\"shard\":\"\",\"epoch_unix_us\":"
      << epoch_unix_us << "}\n";
  return out.str();
}

std::string wall_instant(double ts_us, const std::string& name) {
  std::ostringstream out;
  out << "{\"t\":\"ev\",\"domain\":\"wall\",\"ph\":\"i\",\"ts\":" << ts_us
      << ",\"lane\":0,\"cat\":\"c\",\"name\":\"" << name << "\"}\n";
  return out.str();
}

/// A dispatcher stream (epoch 1000) and two shard streams whose epochs are
/// 1000 us and 3000 us later; shard 1 has a crashed first attempt plus a
/// clean second one.
std::string build_work_dir(const std::string& tag) {
  const std::string dir = fresh_dir(tag);
  write_file(dir + "/dispatcher_telemetry.jsonl",
             header("dispatcher", 100, 1000) + wall_instant(5.0, "spawn") +
                 "{\"t\":\"end\",\"wall_us\":100.0,\"events\":1}\n");
  write_file(dir + "/shard_0/telemetry_0001.jsonl",
             header("fake", 101, 2000) +
                 "{\"t\":\"lane\",\"domain\":\"sim\",\"lane\":0,"
                 "\"name\":\"tasks\"}\n"
                 "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"X\",\"ts\":10,"
                 "\"dur\":20,\"lane\":0,\"cat\":\"c\",\"name\":\"work\","
                 "\"args\":{\"index\":1}}\n" +
                 wall_instant(7.0, "tick") +
                 "{\"t\":\"stack\",\"stack\":\"fake;task\",\"count\":3}\n"
                 "{\"t\":\"end\",\"wall_us\":50.0,\"events\":2}\n");
  // Attempt 1 died mid-write: no end marker, torn trailing line.
  write_file(dir + "/shard_1/telemetry_0001.jsonl",
             header("fake", 102, 4000) + wall_instant(2.0, "tick") +
                 "{\"t\":\"stack\",\"stack\":\"fake;task\",\"count\":1}\n"
                 "{\"t\":\"ev\",\"domain\":\"wall\",\"ph\":\"i\",\"ts\":9");
  write_file(dir + "/shard_1/telemetry_0002.jsonl",
             header("fake", 103, 4500) + wall_instant(3.0, "tick") +
                 "{\"t\":\"stack\",\"stack\":\"fake;task\",\"count\":2}\n"
                 "{\"t\":\"end\",\"wall_us\":20.0,\"events\":1}\n");
  // Distractors discovery must ignore.
  write_file(dir + "/shard_0/attempt_1.log", "worker stdout\n");
  write_file(dir + "/shard_0/fake.ckpt.jsonl", "{\"row\":1}\n");
  return dir;
}

TimelineOptions options_for(const std::string& dir) {
  TimelineOptions options;
  options.work_dir = dir;
  options.shards = 2;
  return options;
}

TEST(ExpTimeline, MergesSourcesInDeterministicOrderWithEpochAlignment) {
  const std::string dir = build_work_dir("merge");
  const TimelineSummary summary = merge_timeline(options_for(dir));
  ASSERT_TRUE(summary.ok()) << summary.error;
  EXPECT_EQ(summary.sources, 4u);
  EXPECT_EQ(summary.aligned_sources, 4u);
  EXPECT_EQ(summary.base_epoch_unix_us, 1000);
  EXPECT_EQ(summary.events, 5u);
  EXPECT_EQ(summary.stacks, 3u)
      << "one folded key per source prefix";

  std::ifstream in(summary.jsonl_path);
  std::string line;
  std::vector<json::Value> procs;
  std::vector<json::Value> events;
  while (std::getline(in, line)) {
    const json::Value v = json::parse(line);
    const std::string& t = v.at("t").as_string();
    if (t == "proc") procs.push_back(v);
    if (t == "ev") events.push_back(v);
  }
  // Dispatcher first, then shards in index order, attempts in order.
  ASSERT_EQ(procs.size(), 4u);
  EXPECT_EQ(procs[0].at("src").as_string(), "dispatcher");
  EXPECT_EQ(procs[0].at("offset_us").as_number(), 0.0);
  EXPECT_EQ(procs[1].at("src").as_string(), "shard0");
  EXPECT_EQ(procs[1].at("offset_us").as_number(), 1000.0);
  EXPECT_EQ(procs[2].at("src").as_string(), "shard1");
  EXPECT_EQ(procs[2].at("offset_us").as_number(), 3000.0);
  EXPECT_EQ(procs[3].at("src").as_string(), "shard1#2");
  EXPECT_EQ(procs[3].at("offset_us").as_number(), 3500.0);

  // Wall timestamps shift by the source's epoch offset; sim stay put.
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].at("src").as_string(), "dispatcher");
  EXPECT_EQ(events[0].at("ts").as_number(), 5.0);
  EXPECT_EQ(events[1].at("src").as_string(), "shard0");
  EXPECT_EQ(events[1].at("domain").as_string(), "sim");
  EXPECT_EQ(events[1].at("ts").as_number(), 10.0) << "sim is its own axis";
  EXPECT_EQ(events[1].at("dur").as_number(), 20.0);
  EXPECT_EQ(events[1].at("args").at("index").as_number(), 1.0);
  EXPECT_EQ(events[2].at("ts").as_number(), 1007.0);  // 7 + offset 1000
  EXPECT_EQ(events[3].at("src").as_string(), "shard1");
  EXPECT_EQ(events[3].at("ts").as_number(), 3002.0);  // 2 + offset 3000
  EXPECT_EQ(events[4].at("src").as_string(), "shard1#2");
  EXPECT_EQ(events[4].at("ts").as_number(), 3503.0);  // 3 + offset 3500

  // Stacks fold under their src prefix (map order: '#' sorts before ';').
  EXPECT_EQ(slurp(summary.stacks_path),
            "shard0;fake;task 3\nshard1#2;fake;task 2\n"
            "shard1;fake;task 1\n");
  fs::remove_all(dir);
}

TEST(ExpTimeline, PerfettoOutputSeparatesSourcesByProcess) {
  const std::string dir = build_work_dir("perfetto");
  const TimelineSummary summary = merge_timeline(options_for(dir));
  ASSERT_TRUE(summary.ok()) << summary.error;
  // One process track per (source, domain) that carried events, named
  // "src/domain" (the descriptor strings sit verbatim in the protobuf).
  const std::string perfetto = slurp(summary.perfetto_path);
  for (const char* process : {"dispatcher/wall", "shard0/sim", "shard0/wall",
                              "shard1/wall", "shard1#2/wall"}) {
    EXPECT_NE(perfetto.find(process), std::string::npos) << process;
  }
  EXPECT_EQ(perfetto.find("dispatcher/sim"), std::string::npos);
  // The JSONL keeps the same split as (src, domain) on every event.
  const obs::query::TraceData trace =
      obs::query::load_trace(summary.jsonl_path);
  ASSERT_EQ(trace.events.size(), 5u);
  EXPECT_EQ(trace.events[0].src, "dispatcher");
  EXPECT_EQ(trace.events[0].domain, "wall");
  EXPECT_EQ(trace.events[1].src, "shard0");
  EXPECT_EQ(trace.events[1].domain, "sim");
  EXPECT_EQ(trace.events[3].src, "shard1");
  EXPECT_EQ(trace.events[4].src, "shard1#2");
  EXPECT_EQ(trace.events[3].ts_us, 3002.0);
  fs::remove_all(dir);
}

TEST(ExpTimeline, RemergeIsByteIdenticalAcrossAllOutputs) {
  const std::string dir = build_work_dir("stable");
  TimelineOptions first = options_for(dir);
  first.out_dir = dir + "/merged_a";
  TimelineOptions second = options_for(dir);
  second.out_dir = dir + "/merged_b";
  const TimelineSummary a = merge_timeline(first);
  const TimelineSummary b = merge_timeline(second);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  // A dispatcher that restarts re-merges the same telemetry streams; the
  // rebuilt timeline must be the same bytes, not just the same shape.
  EXPECT_EQ(slurp(a.jsonl_path), slurp(b.jsonl_path));
  EXPECT_EQ(slurp(a.perfetto_path), slurp(b.perfetto_path));
  EXPECT_EQ(slurp(a.stacks_path), slurp(b.stacks_path));
  fs::remove_all(dir);
}

TEST(ExpTimeline, HeaderlessStreamsMergeUnaligned) {
  const std::string dir = fresh_dir("headerless");
  // Killed before the first flush: no header line at all.
  write_file(dir + "/shard_0/telemetry_0001.jsonl", wall_instant(4.0, "tick"));
  write_file(dir + "/shard_1/telemetry_0001.jsonl",
             header("fake", 7, 9000) + wall_instant(1.0, "tick"));
  TimelineOptions options = options_for(dir);
  const TimelineSummary summary = merge_timeline(options);
  ASSERT_TRUE(summary.ok()) << summary.error;
  EXPECT_EQ(summary.sources, 2u);
  EXPECT_EQ(summary.aligned_sources, 1u);
  EXPECT_EQ(summary.base_epoch_unix_us, 9000);

  std::ifstream in(summary.jsonl_path);
  std::string line;
  std::vector<json::Value> events;
  bool unaligned_proc_seen = false;
  while (std::getline(in, line)) {
    const json::Value v = json::parse(line);
    if (v.at("t").as_string() == "proc" && !v.at("aligned").as_bool()) {
      unaligned_proc_seen = true;
    }
    if (v.at("t").as_string() == "ev") events.push_back(v);
  }
  EXPECT_TRUE(unaligned_proc_seen);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("ts").as_number(), 4.0)
      << "unalignable events keep their local timestamps";
  EXPECT_EQ(events[1].at("ts").as_number(), 1.0)
      << "the aligned source sits at the base epoch: offset 0";
  fs::remove_all(dir);
}

TEST(ExpTimeline, OutOfRangeNumbersAreSkippedOrSaturated) {
  const std::string dir = fresh_dir("out_of_range");
  // shard 0: a header whose pid overflows int reads as missing, so the
  // stream merges unaligned; of its lines, a negative lane, a negative
  // stack count and an infinite timestamp are skipped, and a timestamp
  // past the uint64 nanosecond range renders saturated.
  write_file(dir + "/shard_0/telemetry_0001.jsonl",
             "{\"t\":\"header\",\"telemetry\":1,\"name\":\"fake\","
             "\"pid\":1e999,\"shard\":\"\",\"epoch_unix_us\":5}\n"
             "{\"t\":\"lane\",\"domain\":\"wall\",\"lane\":-1,"
             "\"name\":\"bad\"}\n"
             "{\"t\":\"ev\",\"domain\":\"wall\",\"ph\":\"i\",\"ts\":1,"
             "\"lane\":-1,\"cat\":\"c\",\"name\":\"bad-lane\"}\n"
             "{\"t\":\"ev\",\"domain\":\"wall\",\"ph\":\"i\",\"ts\":1e999,"
             "\"lane\":0,\"cat\":\"c\",\"name\":\"inf-ts\"}\n"
             "{\"t\":\"stack\",\"stack\":\"fake;task\",\"count\":-1}\n" +
                 wall_instant(1e300, "far") + wall_instant(2.0, "tick"));
  // shard 1: an epoch past int64 is a missing header too.
  write_file(dir + "/shard_1/telemetry_0001.jsonl",
             "{\"t\":\"header\",\"telemetry\":1,\"name\":\"fake\","
             "\"pid\":7,\"shard\":\"\",\"epoch_unix_us\":1e300}\n" +
                 wall_instant(3.0, "tick"));
  const TimelineSummary summary = merge_timeline(options_for(dir));
  ASSERT_TRUE(summary.ok()) << summary.error;
  EXPECT_EQ(summary.sources, 2u);
  EXPECT_EQ(summary.aligned_sources, 0u);
  EXPECT_EQ(summary.stacks, 0u);
  const obs::query::TraceData trace =
      obs::query::load_trace(summary.jsonl_path);
  std::vector<std::string> names;
  for (const obs::query::QueryEvent& e : trace.events) {
    names.push_back(e.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"far", "tick", "tick"}));
  EXPECT_TRUE(trace.lane_names.empty());
  EXPECT_FALSE(slurp(summary.perfetto_path).empty());
  fs::remove_all(dir);
}

TEST(ExpTimeline, ReportsErrorsInsteadOfThrowing) {
  TimelineOptions options;
  EXPECT_FALSE(merge_timeline(options).ok());

  options.work_dir = fresh_dir("empty");
  options.shards = 2;
  const TimelineSummary summary = merge_timeline(options);
  EXPECT_FALSE(summary.ok());
  EXPECT_NE(summary.error.find("no telemetry streams"), std::string::npos);
  fs::remove_all(options.work_dir);
}

}  // namespace
}  // namespace dcs::exp
