#include "obs/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace dcs::obs {
namespace {

/// The Profiler is a process-wide singleton; every test starts from a clean,
/// disabled state and leaves it that way.
class ObsProfile : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().reset();
    Profiler::instance().set_enabled(false);
    Profiler::set_thread_lane(0);
  }
  void TearDown() override {
    Profiler::instance().reset();
    Profiler::instance().set_enabled(false);
    Profiler::set_thread_lane(0);
  }
};

TEST_F(ObsProfile, DisabledScopesRecordNothing) {
  { DCS_OBS_SCOPE("noop"); }
  EXPECT_TRUE(Profiler::instance().collect().empty());
}

TEST_F(ObsProfile, EnabledScopesRecordSpans) {
  Profiler::instance().set_enabled(true);
  { DCS_OBS_SCOPE("outer"); { DCS_OBS_SCOPE("inner"); } }
  const std::vector<ProfileEvent> events = Profiler::instance().collect();
  ASSERT_EQ(events.size(), 2u);
  for (const ProfileEvent& e : events) {
    EXPECT_EQ(e.lane, 0u);
    EXPECT_GE(e.dur_us, 0.0);
  }
  // Same lane and (nearly) same start: the longer (outer) span sorts first
  // so Chrome renders proper nesting.
  EXPECT_GE(events[0].dur_us, events[1].dur_us);
}

TEST_F(ObsProfile, WorkerThreadsRecordIntoTheirOwnLanes) {
  Profiler::instance().set_enabled(true);
  std::vector<std::thread> workers;
  for (std::uint32_t lane = 1; lane <= 3; ++lane) {
    workers.emplace_back([lane] {
      Profiler::set_thread_lane(lane);
      DCS_OBS_SCOPE("work");
    });
  }
  for (std::thread& t : workers) t.join();
  const std::vector<ProfileEvent> events = Profiler::instance().collect();
  ASSERT_EQ(events.size(), 3u);
  // collect() sorts by lane first.
  EXPECT_EQ(events[0].lane, 1u);
  EXPECT_EQ(events[1].lane, 2u);
  EXPECT_EQ(events[2].lane, 3u);
}

TEST_F(ObsProfile, SummarizeAggregatesPerName) {
  Profiler::instance().record("a", 0.0, 10.0);
  Profiler::instance().record("a", 20.0, 30.0);
  Profiler::instance().record("b", 0.0, 5.0);
  // record() honours the enabled flag at the ScopeTimer, not here, so these
  // synthetic spans land even while disabled.
  const ProfileSummary summary =
      summarize(Profiler::instance().collect());
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary.at("a").count, 2u);
  EXPECT_DOUBLE_EQ(summary.at("a").total_us, 40.0);
  EXPECT_DOUBLE_EQ(summary.at("a").max_us, 30.0);
  EXPECT_DOUBLE_EQ(summary.at("a").mean_us(), 20.0);
  EXPECT_EQ(summary.at("b").count, 1u);
}

TEST_F(ObsProfile, ExportToEmitsWallSpansAndNamesLanes) {
  Profiler::instance().record("task", 1.0, 2.0);
  Profiler::set_thread_lane(0);
  Tracer tracer;
  export_to(tracer, Profiler::instance().collect());
  ASSERT_EQ(tracer.events().size(), 1u);
  const TraceEvent& e = tracer.events().front();
  EXPECT_EQ(e.domain, Domain::kWall);
  EXPECT_EQ(e.phase, 'X');
  EXPECT_DOUBLE_EQ(e.ts_us, 1.0);
  EXPECT_DOUBLE_EQ(e.dur_us, 2.0);
  std::ostringstream out;
  tracer.write_jsonl(out);
  EXPECT_NE(out.str().find("\"name\":\"main\""), std::string::npos);
}

TEST_F(ObsProfile, ResetDropsBufferedSpans) {
  Profiler::instance().record("x", 0.0, 1.0);
  EXPECT_EQ(Profiler::instance().collect().size(), 1u);
  Profiler::instance().reset();
  EXPECT_TRUE(Profiler::instance().collect().empty());
}

}  // namespace
}  // namespace dcs::obs
