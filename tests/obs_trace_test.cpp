#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "jsonl_stream.h"

namespace dcs::obs {
namespace {

TEST(ObsTrace, InstantEventsCarrySimTimeAndLane) {
  Tracer tracer;
  tracer.set_lane(3);
  tracer.instant(Duration::seconds(2), "controller", "phase",
                 {arg("from", std::string_view("normal")),
                  arg("to", std::string_view("cb-overload"))});
  ASSERT_EQ(tracer.events().size(), 1u);
  const TraceEvent& e = tracer.events().front();
  EXPECT_EQ(e.domain, Domain::kSim);
  EXPECT_EQ(e.phase, 'i');
  EXPECT_DOUBLE_EQ(e.ts_us, 2e6);
  EXPECT_EQ(e.lane, 3u);
  EXPECT_EQ(e.cat, "controller");
  EXPECT_EQ(e.name, "phase");
  ASSERT_EQ(e.args.size(), 2u);
  EXPECT_EQ(e.args[0].key, "from");
  EXPECT_EQ(e.args[0].value, "\"normal\"");
}

TEST(ObsTrace, ArgRendersNumbersRoundTrippable) {
  EXPECT_EQ(arg("x", 1.5).value, "1.5");
  EXPECT_EQ(arg("b", true).value, "true");
  // Non-finite doubles have no JSON literal; they render as strings.
  EXPECT_EQ(arg("inf", std::string_view("inf")).value, "\"inf\"");
}

TEST(ObsTrace, JsonlWritesOneObjectPerEventInAppendOrder) {
  Tracer tracer;
  tracer.instant(Duration::seconds(1), "a", "first");
  tracer.instant(Duration::seconds(2), "a", "second");
  const std::string text = test::streamed_jsonl(std::move(tracer), "order");
  std::istringstream lines(text);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++count;
  }
  EXPECT_EQ(count, 2);
  EXPECT_LT(text.find("first"), text.find("second"));
}

TEST(ObsTrace, MergeFromAppendsInOrderAndTransfersLaneNames) {
  Tracer a;
  a.instant(Duration::seconds(1), "x", "one");
  Tracer b;
  b.set_lane(7);
  b.name_lane(Domain::kSim, 7, "task-7");
  b.instant(Duration::seconds(2), "x", "two");

  a.merge_from(std::move(b));
  ASSERT_EQ(a.events().size(), 2u);
  EXPECT_EQ(a.events()[0].name, "one");
  EXPECT_EQ(a.events()[1].name, "two");
  EXPECT_EQ(a.events()[1].lane, 7u);

  // Merged into a stream, the lane name follows the events as a "lane"
  // line.
  const std::string text = test::streamed_jsonl(std::move(a), "lanes");
  EXPECT_NE(text.find("{\"t\":\"lane\",\"domain\":\"sim\",\"lane\":7,"
                      "\"name\":\"task-7\"}\n"),
            std::string::npos);
  EXPECT_LT(text.find("\"two\""), text.find("\"task-7\""));
}

TEST(ObsTrace, MergeClearsTheSourceSoDoubleMergeDoesNotDuplicate) {
  Tracer a;
  Tracer b;
  b.instant(Duration::seconds(1), "x", "only-once");
  a.merge_from(std::move(b));
  ASSERT_EQ(a.events().size(), 1u);
  // The moved-from tracer is contractually empty; merging it again must be
  // a no-op, not a silent duplication of the stream.
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): contract
  a.merge_from(std::move(b));
  EXPECT_EQ(a.events().size(), 1u);
  EXPECT_EQ(a.count(Domain::kSim), 1u);
}

TEST(ObsTrace, SelfMergeIsAPreconditionViolation) {
  Tracer a;
  a.instant(Duration::seconds(1), "x", "e");
  EXPECT_THROW(a.merge_from(std::move(a)), std::invalid_argument);
  // The tracer is untouched by the rejected merge.
  EXPECT_EQ(a.events().size(), 1u);  // NOLINT(bugprone-use-after-move)
}

TEST(ObsTrace, CountByDomainAndClear) {
  Tracer tracer;
  tracer.instant(Duration::seconds(1), "x", "sim-event");
  TraceEvent wall;
  wall.domain = Domain::kWall;
  wall.phase = 'X';
  tracer.append(wall);
  EXPECT_EQ(tracer.count(Domain::kSim), 1u);
  EXPECT_EQ(tracer.count(Domain::kWall), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.empty());
}

TEST(ObsTrace, StringArgsEscapeControlAndQuoteCharacters) {
  const TraceArg a = arg("msg", std::string_view("a\"b\\c\nd"));
  EXPECT_EQ(a.value, "\"a\\\"b\\\\c\\nd\"");
}

}  // namespace
}  // namespace dcs::obs
