// Worker telemetry streams (obs::TelemetrySink in obs/sink.h): the header
// that is on disk before any event, the trace lines and folded stacks that
// follow it, and finalize sealing the stream. Torn-last-line reading is
// covered where the readers live: ObsQuery (load_trace) and the checkpoint
// tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "util/json.h"

namespace dcs::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<json::Value> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(json::parse(line));
  return lines;
}

TraceEvent instant_at(double ts_us, const std::string& name) {
  TraceEvent e;
  e.phase = 'i';
  e.ts_us = ts_us;
  e.cat = "test";
  e.name = name;
  return e;
}

TEST(ObsTelemetry, HeaderIsOnDiskBeforeAnyEvent) {
  const std::string path = temp_path("telemetry_header.jsonl");
  TelemetrySink sink(path, {.name = "early", .shard = "0/2"});
  ASSERT_TRUE(sink.ok());
  // Read right after construction: no event, no finalize. This is all a
  // worker killed mid-sweep leaves, and it must still align.
  const std::vector<json::Value> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].at("t").as_string(), "header");
  EXPECT_EQ(lines[0].at("name").as_string(), "early");
  EXPECT_EQ(lines[0].at("shard").as_string(), "0/2");
  EXPECT_EQ(static_cast<std::int64_t>(lines[0].at("epoch_unix_us").as_number()),
            Profiler::instance().epoch_unix_us());
  sink.finalize();
  std::remove(path.c_str());
}

TEST(ObsTelemetry, StreamCarriesHeaderEventsLanesAndStacks) {
  const std::string path = temp_path("telemetry_full.jsonl");
  {
    TelemetrySink sink(path, {.name = "unit", .shard = "1/4"});
    ASSERT_TRUE(sink.ok());
    sink.write_lane_name(Domain::kSim, 0, "lane-zero");
    sink.write_lane_name(Domain::kSim, 0, "lane-zero");  // a repeat: no line
    sink.write(instant_at(1.0, "first"));
    sink.write_stacks({{"main;task", 7}});
    EXPECT_EQ(sink.events_written(), 1u);
    sink.finalize();
  }
  const std::vector<json::Value> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);

  // Header first, exactly once, with the cross-process merge anchor.
  EXPECT_EQ(lines[0].at("t").as_string(), "header");
  EXPECT_EQ(lines[0].at("telemetry").as_number(), 1.0);
  EXPECT_EQ(lines[0].at("name").as_string(), "unit");
  EXPECT_EQ(lines[0].at("shard").as_string(), "1/4");
  EXPECT_GT(lines[0].at("pid").as_number(), 0.0);
  EXPECT_EQ(static_cast<std::int64_t>(lines[0].at("epoch_unix_us").as_number()),
            Profiler::instance().epoch_unix_us());

  // Then the trace lines, as JsonlStreamSink writes them, in arrival order.
  EXPECT_EQ(lines[1].at("t").as_string(), "lane");
  EXPECT_EQ(lines[1].at("name").as_string(), "lane-zero");
  EXPECT_EQ(lines[2].at("t").as_string(), "ev");
  EXPECT_EQ(lines[2].at("name").as_string(), "first");

  // Stacks last, before finalize.
  EXPECT_EQ(lines[3].at("t").as_string(), "stack");
  EXPECT_EQ(lines[3].at("stack").as_string(), "main;task");
  EXPECT_EQ(lines[3].at("count").as_number(), 7.0);
  std::remove(path.c_str());
}

TEST(ObsTelemetry, FinalizeIsIdempotentAndSealsTheStream) {
  const std::string path = temp_path("telemetry_finalize.jsonl");
  TelemetrySink sink(path);
  sink.write(instant_at(1.0, "kept"));
  sink.finalize();
  sink.finalize();  // idempotent
  sink.write(instant_at(2.0, "dropped"));
  sink.write_stacks({{"late;stack", 1}});
  EXPECT_EQ(sink.events_written(), 1u);
  const std::vector<json::Value> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u) << "writes after finalize must be no-ops";
  EXPECT_EQ(lines[0].at("t").as_string(), "header");
  EXPECT_EQ(lines[1].at("name").as_string(), "kept");
  std::remove(path.c_str());
}

TEST(ObsTelemetry, UnwritablePathReportsNotOkAndNeverCrashes) {
  TelemetrySink sink("/nonexistent-dir/telemetry.jsonl");
  EXPECT_FALSE(sink.ok());
  EXPECT_FALSE(sink.healthy());
  sink.write(instant_at(1.0, "dropped"));
  sink.write_stacks({{"s", 1}});
  sink.finalize();
  EXPECT_EQ(sink.events_written(), 0u);
}

}  // namespace
}  // namespace dcs::obs
