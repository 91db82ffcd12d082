#include "obs/profile.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "jsonl_stream.h"

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

std::size_t count_of(const ScopePaths& paths, std::uint32_t lane,
                     const std::string& path) {
  const auto it = paths.find({lane, path});
  return it == paths.end() ? 0 : it->second.count;
}

TEST_F(ObsProfile, DisabledScopesRecordNothing) {
  { DCS_OBS_SCOPE("noop"); }
  { DCS_OBS_SPAN("noop.span"); }
  const Profile profile = Profiler::instance().collect();
  EXPECT_TRUE(profile.spans.empty());
  EXPECT_TRUE(profile.paths.empty());
}

TEST_F(ObsProfile, EnabledScopesRecordSpans) {
  Profiler::instance().set_enabled(true);
  { DCS_OBS_SPAN("outer"); { DCS_OBS_SPAN("inner"); } }
  const std::vector<ProfileEvent> spans = Profiler::instance().collect().spans;
  ASSERT_EQ(spans.size(), 2u);
  for (const ProfileEvent& e : spans) {
    EXPECT_EQ(e.lane, 0u);
    EXPECT_GE(e.dur_us, 0.0);
  }
  // Same lane and (nearly) same start: the longer (outer) span sorts
  // first, so every span precedes the spans it encloses.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_GE(spans[0].dur_us, spans[1].dur_us);
}

TEST_F(ObsProfile, NestedScopesAggregatePerPathWithExactCounts) {
  Profiler::instance().set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    DCS_OBS_SCOPE("outer");
    for (int j = 0; j < 5; ++j) {
      DCS_OBS_SCOPE("inner");
    }
  }
  const Profile profile = Profiler::instance().collect();
  EXPECT_TRUE(profile.spans.empty()) << "plain scopes record no span";
  ASSERT_EQ(profile.paths.size(), 2u);
  EXPECT_EQ(count_of(profile.paths, 0, "outer"), 3u);
  EXPECT_EQ(count_of(profile.paths, 0, "outer;inner"), 15u);
  const ScopeStats& inner = profile.paths.at({0, "outer;inner"});
  EXPECT_GE(inner.min_us, 0.0);
  EXPECT_LE(inner.min_us, inner.max_us);
  EXPECT_LE(inner.max_us, inner.total_us);
  EXPECT_LE(inner.total_us, profile.paths.at({0, "outer"}).total_us);
}

TEST_F(ObsProfile, OneNameUnderTwoParentsGivesTwoPaths) {
  Profiler::instance().set_enabled(true);
  { DCS_OBS_SCOPE("a"); { DCS_OBS_SCOPE("leaf"); } }
  { DCS_OBS_SCOPE("b"); { DCS_OBS_SCOPE("leaf"); } { DCS_OBS_SCOPE("leaf"); } }
  { DCS_OBS_SCOPE("leaf"); }
  const ScopePaths paths = Profiler::instance().collect().paths;
  EXPECT_EQ(count_of(paths, 0, "a;leaf"), 1u);
  EXPECT_EQ(count_of(paths, 0, "b;leaf"), 2u);
  EXPECT_EQ(count_of(paths, 0, "leaf"), 1u);
  EXPECT_EQ(paths.size(), 5u);
}

TEST_F(ObsProfile, LanesStayApart) {
  Profiler::instance().set_enabled(true);
  { DCS_OBS_SCOPE("work"); }
  Profiler::set_thread_lane(4);
  { DCS_OBS_SCOPE("work"); { DCS_OBS_SCOPE("step"); } }
  { DCS_OBS_SCOPE("work"); }
  const ScopePaths paths = Profiler::instance().collect().paths;
  EXPECT_EQ(count_of(paths, 0, "work"), 1u);
  EXPECT_EQ(count_of(paths, 4, "work"), 2u);
  EXPECT_EQ(count_of(paths, 4, "work;step"), 1u);
  EXPECT_EQ(count_of(paths, 0, "work;step"), 0u);
}

TEST_F(ObsProfile, WorkerThreadsRecordIntoTheirOwnLanes) {
  Profiler::instance().set_enabled(true);
  std::vector<std::thread> workers;
  for (std::uint32_t lane = 1; lane <= 3; ++lane) {
    workers.emplace_back([lane] {
      Profiler::set_thread_lane(lane);
      DCS_OBS_SPAN("work");
      for (std::uint32_t i = 0; i < lane; ++i) {
        DCS_OBS_SCOPE("step");
      }
    });
  }
  // The threads exit before collect(): their totals stay with the
  // profiler.
  for (std::thread& t : workers) t.join();
  const Profile profile = Profiler::instance().collect();
  ASSERT_EQ(profile.spans.size(), 3u);
  // Spans sort by lane first.
  EXPECT_EQ(profile.spans[0].lane, 1u);
  EXPECT_EQ(profile.spans[1].lane, 2u);
  EXPECT_EQ(profile.spans[2].lane, 3u);
  for (std::uint32_t lane = 1; lane <= 3; ++lane) {
    EXPECT_EQ(count_of(profile.paths, lane, "work"), 1u);
    EXPECT_EQ(count_of(profile.paths, lane, "work;step"), lane);
  }
}

TEST_F(ObsProfile, ScopesOpenedWhileDisabledStayOffThePath) {
  {
    DCS_OBS_SCOPE("off");  // opened while disabled: never pushed
    Profiler::instance().set_enabled(true);
    { DCS_OBS_SCOPE("on"); }
  }
  {
    DCS_OBS_SCOPE("outer");  // pushed, and popped after the switch-off
    Profiler::instance().set_enabled(false);
    { DCS_OBS_SCOPE("skipped"); }
  }
  Profiler::instance().set_enabled(true);
  { DCS_OBS_SCOPE("after"); }
  const ScopePaths paths = Profiler::instance().collect().paths;
  EXPECT_EQ(count_of(paths, 0, "on"), 1u);
  EXPECT_EQ(count_of(paths, 0, "outer"), 1u);
  EXPECT_EQ(count_of(paths, 0, "after"), 1u) << "the outer scope popped";
  EXPECT_EQ(paths.size(), 3u);
}

TEST_F(ObsProfile, SummarizeAggregatesPerName) {
  ScopePaths paths;
  paths[{0, "a"}] = {.count = 1, .total_us = 10.0, .min_us = 10.0,
                     .max_us = 10.0};
  paths[{1, "x;a"}] = {.count = 1, .total_us = 30.0, .min_us = 30.0,
                       .max_us = 30.0};
  paths[{1, "x;b"}] = {.count = 1, .total_us = 5.0, .min_us = 5.0,
                       .max_us = 5.0};
  const ProfileSummary summary = summarize_names(paths);
  ASSERT_EQ(summary.size(), 2u);  // "x" has no finished call of its own
  EXPECT_EQ(summary.at("a").count, 2u);
  EXPECT_DOUBLE_EQ(summary.at("a").total_us, 40.0);
  EXPECT_DOUBLE_EQ(summary.at("a").min_us, 10.0);
  EXPECT_DOUBLE_EQ(summary.at("a").max_us, 30.0);
  EXPECT_DOUBLE_EQ(summary.at("a").mean_us(), 20.0);
  EXPECT_EQ(summary.at("b").count, 1u);
}

TEST_F(ObsProfile, FoldedStacksKeyByLaneAndPathWithSelfTimes) {
  Profiler::instance().set_enabled(true);
  for (int i = 0; i < 4; ++i) {
    DCS_OBS_SCOPE("outer");
    {
      DCS_OBS_SCOPE("inner");
      { DCS_OBS_SCOPE("leaf"); }
    }
    { DCS_OBS_SCOPE("other"); }
  }
  const ScopePaths paths = Profiler::instance().collect().paths;
  const FoldedStacks folded = folded_stacks(paths);
  ASSERT_EQ(folded.size(), 4u);
  EXPECT_EQ(folded.count("main;outer"), 1u);
  EXPECT_EQ(folded.count("main;outer;inner"), 1u);
  EXPECT_EQ(folded.count("main;outer;inner;leaf"), 1u);
  EXPECT_EQ(folded.count("main;outer;other"), 1u);
  // Self times are whole microseconds, so the subtree sums to its root's
  // total within half a microsecond per entry.
  double self_sum = 0.0;
  for (const auto& [stack, self_us] : folded) {
    self_sum += static_cast<double>(self_us);
  }
  EXPECT_NEAR(self_sum, paths.at({0, "outer"}).total_us,
              0.5 * static_cast<double>(folded.size()) + 1e-9);

  // Exact arithmetic on chosen totals: self = total - direct children.
  ScopePaths fixed;
  fixed[{2, "task"}] = {.count = 1, .total_us = 100.0};
  fixed[{2, "task;run"}] = {.count = 2, .total_us = 70.4};
  fixed[{2, "task;run;step"}] = {.count = 9, .total_us = 60.0};
  fixed[{2, "task;log"}] = {.count = 1, .total_us = 20.0};
  const FoldedStacks exact = folded_stacks(fixed);
  EXPECT_EQ(exact.at("worker-2;task"), 10u);
  EXPECT_EQ(exact.at("worker-2;task;run"), 10u);
  EXPECT_EQ(exact.at("worker-2;task;run;step"), 60u);
  EXPECT_EQ(exact.at("worker-2;task;log"), 20u);
}

TEST_F(ObsProfile, WriteFoldedFormatsOneLinePerStack) {
  const FoldedStacks folded{{"main;exp.task;sim.run", 7},
                            {"worker-1;exp.task", 2}};
  std::ostringstream out;
  write_folded(out, folded);
  EXPECT_EQ(out.str(), "main;exp.task;sim.run 7\nworker-1;exp.task 2\n");
}

TEST_F(ObsProfile, ExportToEmitsWallSpansAndNamesLanes) {
  Profile profile;
  profile.spans.push_back({"task", 0, 1.0, 2.0});
  profile.at_us = 9.0;
  Tracer tracer;
  export_to(tracer, profile);
  ASSERT_EQ(tracer.events().size(), 1u);
  const TraceEvent& e = tracer.events().front();
  EXPECT_EQ(e.domain, Domain::kWall);
  EXPECT_EQ(e.phase, 'X');
  EXPECT_EQ(e.cat, "profile");
  EXPECT_DOUBLE_EQ(e.ts_us, 1.0);
  EXPECT_DOUBLE_EQ(e.dur_us, 2.0);
  EXPECT_NE(test::streamed_jsonl(std::move(tracer), "profile_main")
                .find("\"name\":\"main\""),
            std::string::npos);
}

TEST_F(ObsProfile, ScopeInsideASpanExportsOneSpanAndTwoSummaries) {
  Profiler::instance().set_enabled(true);
  Profiler::set_thread_lane(3);
  {
    DCS_OBS_SPAN("run");
    for (int i = 0; i < 6; ++i) {
      DCS_OBS_SCOPE("step");
    }
  }
  Tracer tracer;
  export_to(tracer, Profiler::instance().collect());
  ASSERT_EQ(tracer.events().size(), 3u);
  const TraceEvent& span = tracer.events()[0];
  EXPECT_EQ(span.phase, 'X');
  EXPECT_EQ(span.name, "run");
  EXPECT_EQ(span.lane, 3u);
  std::vector<std::pair<std::string, std::string>> counts;
  for (std::size_t i = 1; i < 3; ++i) {
    const TraceEvent& summary = tracer.events()[i];
    EXPECT_EQ(summary.domain, Domain::kWall);
    EXPECT_EQ(summary.phase, 'i');
    EXPECT_EQ(summary.cat, "scope");
    EXPECT_EQ(summary.lane, 3u);
    ASSERT_EQ(summary.args.size(), 4u);
    EXPECT_EQ(summary.args[0].key, "count");
    EXPECT_EQ(summary.args[1].key, "total_us");
    EXPECT_EQ(summary.args[2].key, "min_us");
    EXPECT_EQ(summary.args[3].key, "max_us");
    counts.emplace_back(summary.name, summary.args[0].value);
  }
  EXPECT_EQ(counts[0], std::make_pair(std::string("run"), std::string("1")));
  EXPECT_EQ(counts[1],
            std::make_pair(std::string("run;step"), std::string("6")));
  EXPECT_NE(test::streamed_jsonl(std::move(tracer), "profile_worker")
                .find("\"name\":\"worker-3\""),
            std::string::npos);
}

TEST_F(ObsProfile, ResetDropsBufferedSpans) {
  Profiler::instance().set_enabled(true);
  {
    DCS_OBS_SPAN("x");
    { DCS_OBS_SCOPE("y"); }
  }
  const Profile before = Profiler::instance().collect();
  EXPECT_EQ(before.spans.size(), 1u);
  EXPECT_EQ(before.paths.size(), 2u);
  {
    DCS_OBS_SCOPE("open");
    // Resetting under an open scope keeps that scope's entry valid.
    Profiler::instance().reset();
    const Profile after = Profiler::instance().collect();
    EXPECT_TRUE(after.spans.empty());
    EXPECT_TRUE(after.paths.empty());
  }
  EXPECT_EQ(count_of(Profiler::instance().collect().paths, 0, "open"), 1u);
}

}  // namespace
}  // namespace dcs::obs
