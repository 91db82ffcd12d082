// Streaming trace sinks: a byte-bounded render buffer, the JSONL line
// schema, failure reporting, and the Tracer's streaming mode.
#include "obs/sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/json.h"

namespace dcs::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TraceEvent instant_at(double ts_us, const std::string& name) {
  TraceEvent e;
  e.phase = 'i';
  e.ts_us = ts_us;
  e.cat = "test";
  e.name = name;
  return e;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ObsSink, StreamsManyEventsThroughSmallBufferWithBoundedMemory) {
  const std::string path = temp_path("sink_bounded.jsonl");
  const std::size_t kEvents = 120000;
  const std::size_t kBuffer = 4096;
  std::size_t longest = 0;
  {
    JsonlStreamSink sink(path, {.buffer_bytes = kBuffer});
    ASSERT_TRUE(sink.ok());
    for (std::size_t i = 0; i < kEvents; ++i) {
      sink.write(instant_at(static_cast<double>(i), "e"));
    }
    sink.finalize();
    EXPECT_EQ(sink.events_written(), kEvents);
    for (const std::string& line : read_lines(path)) {
      longest = std::max(longest, line.size() + 1);
    }
    // The whole point: peak memory is the byte bound plus one rendered
    // line, not the trace length.
    EXPECT_LT(sink.peak_buffered_bytes(), kBuffer + longest);
    EXPECT_GE(sink.flush_count(), kEvents * 40 / kBuffer);
  }
  EXPECT_EQ(read_lines(path).size(), kEvents);
  std::remove(path.c_str());
}

TEST(ObsSink, FinalizeIsIdempotentAndDtorFinalizes) {
  const std::string path = temp_path("sink_idempotent.jsonl");
  {
    JsonlStreamSink sink(path);
    sink.write(instant_at(1.0, "once"));
    sink.finalize();
    sink.finalize();
    sink.write(instant_at(2.0, "after-finalize"));  // dropped
  }  // dtor calls finalize() again
  ASSERT_EQ(read_lines(path).size(), 1u);
  EXPECT_EQ(json::parse(read_lines(path)[0]).at("name").as_string(), "once");
  {
    JsonlStreamSink sink(path);
    sink.write(instant_at(3.0, "dtor-only"));
  }  // no finalize: the destructor writes the buffered line
  ASSERT_EQ(read_lines(path).size(), 1u);
  EXPECT_NE(read_lines(path)[0].find("dtor-only"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsSink, LaneNamesRenderOnceAndInterleaveSafely) {
  const std::string path = temp_path("sink_lanes.jsonl");
  {
    JsonlStreamSink sink(path, {.buffer_bytes = 64});
    sink.write_lane_name(Domain::kSim, 2, "task-2");
    sink.write(instant_at(1.0, "a"));
    sink.write_lane_name(Domain::kSim, 2, "task-2");  // duplicate: dropped
    sink.write(instant_at(2.0, "b"));
    sink.write_lane_name(Domain::kSim, 2, "renamed");
    sink.finalize();
    EXPECT_EQ(sink.events_written(), 2u) << "lane lines are not events";
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  const json::Value lane = json::parse(lines[0]);
  EXPECT_EQ(lane.at("t").as_string(), "lane");
  EXPECT_EQ(lane.at("domain").as_string(), "sim");
  EXPECT_EQ(lane.at("lane").as_number(), 2.0);
  EXPECT_EQ(lane.at("name").as_string(), "task-2");
  EXPECT_EQ(json::parse(lines[1]).at("name").as_string(), "a");
  EXPECT_EQ(json::parse(lines[2]).at("name").as_string(), "b");
  EXPECT_EQ(json::parse(lines[3]).at("name").as_string(), "renamed");
  std::remove(path.c_str());
}

TEST(ObsSink, JsonlSinkWritesOneParsableObjectPerLine) {
  const std::string path = temp_path("sink_lines.jsonl");
  {
    JsonlStreamSink sink(path, {.buffer_bytes = 256});
    for (std::size_t i = 0; i < 50; ++i) {
      sink.write(instant_at(static_cast<double>(i), "line"));
    }
    sink.write_lane_name(Domain::kSim, 0, "lane-zero");
    sink.finalize();
  }
  std::size_t events = 0;
  std::size_t lanes = 0;
  for (const std::string& line : read_lines(path)) {
    const json::Value v = json::parse(line);
    if (v.at("t").as_string() == "ev") {
      EXPECT_EQ(v.at("name").as_string(), "line");
      EXPECT_EQ(v.at("domain").as_string(), "sim");
      EXPECT_EQ(v.at("ph").as_string(), "i");
      EXPECT_EQ(v.at("ts").as_number(), static_cast<double>(events));
      ++events;
    } else {
      EXPECT_EQ(v.at("t").as_string(), "lane");
      ++lanes;
    }
  }
  EXPECT_EQ(events, 50u);
  EXPECT_EQ(lanes, 1u);
  std::remove(path.c_str());
}

TEST(ObsSink, StreamingTracerForwardsWithoutBuffering) {
  const std::string path = temp_path("sink_tracer.jsonl");
  {
    JsonlStreamSink sink(path, {.buffer_bytes = 1024});
    Tracer tracer(&sink);
    tracer.set_lane(5);
    for (int i = 0; i < 100; ++i) {
      tracer.instant(Duration::seconds(i), "cat", "streamed");
    }
    tracer.name_lane(Domain::kSim, 5, "lane-five");
    // Streaming mode: nothing retained, counts still tracked.
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_FALSE(tracer.empty());
    EXPECT_EQ(tracer.count(Domain::kSim), 100u);
    sink.finalize();
    EXPECT_EQ(sink.events_written(), 100u);
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 101u);
  EXPECT_NE(lines.back().find("lane-five"), std::string::npos)
      << "the lane line lands where it arrived";
  std::remove(path.c_str());
}

TEST(ObsSink, MergeIntoStreamingTracerDrainsBufferedSource) {
  const std::string path = temp_path("sink_merge.jsonl");
  {
    JsonlStreamSink sink(path);
    Tracer merged(&sink);
    Tracer task;
    task.set_lane(1);
    task.instant(Duration::seconds(1), "x", "from-task");
    task.name_lane(Domain::kSim, 1, "task-1");
    merged.merge_from(std::move(task));
    EXPECT_TRUE(task.empty());  // NOLINT(bugprone-use-after-move): contract
    EXPECT_EQ(merged.count(Domain::kSim), 1u);
    sink.finalize();
  }
  const std::string text = read_file(path);
  EXPECT_NE(text.find("from-task"), std::string::npos);
  EXPECT_NE(text.find("task-1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsSink, StreamFailureMidRunDropsSinkToNotOk) {
  // /dev/full opens fine but every flush fails with ENOSPC — the mid-run
  // disk-full case. ok() must flip at the flush boundary, not stay healthy
  // until finalize().
  {
    std::ofstream probe("/dev/full");
    if (!probe.is_open()) {
      GTEST_SKIP() << "/dev/full not available on this platform";
    }
  }
  // About eight lines fill the buffer, so the first flush comes at the
  // eighth or ninth event.
  JsonlStreamSink sink("/dev/full", {.buffer_bytes = 8 * 80});
  ASSERT_TRUE(sink.ok());
  std::size_t i = 0;
  for (; i < 64 && sink.ok(); ++i) {
    sink.write(instant_at(static_cast<double>(i), "doomed"));
  }
  EXPECT_FALSE(sink.ok()) << "the failed flush must drop the sink state";
  EXPECT_FALSE(sink.healthy()) << "a failed sink must not read as healthy";
  EXPECT_LE(i, 16u) << "ok() must flip at the first failing flush boundary";
  EXPECT_EQ(sink.flush_count(), 1u);
  const std::size_t written = sink.events_written();
  sink.write(instant_at(999.0, "after-failure"));  // dropped, no crash
  EXPECT_EQ(sink.events_written(), written);
  sink.finalize();  // must not crash
  EXPECT_FALSE(sink.ok());
}

TEST(ObsSink, UnwritablePathReportsNotOk) {
  JsonlStreamSink sink("/nonexistent-dir/trace.jsonl");
  EXPECT_FALSE(sink.ok());
  sink.write(instant_at(1.0, "dropped"));
  sink.finalize();  // must not crash
}

}  // namespace
}  // namespace dcs::obs
