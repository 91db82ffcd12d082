#include "sim/recorder.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace dcs::sim {
namespace {

TEST(SimRecorder, SeriesRoundTripsEveryColumn) {
  Recorder rec;
  rec.start({"power", "soc"}, 2);
  EXPECT_TRUE(rec.has("power"));
  EXPECT_FALSE(rec.has("temp"));
  // More rows than reserved still append.
  for (int i = 0; i < 5; ++i) {
    rec.append(Duration::seconds(i),
               std::vector<double>{1.5 * i, 1.0 - 0.1 * i});
  }
  const TimeSeries power = rec.series("power");
  const TimeSeries soc = rec.series("soc");
  ASSERT_EQ(power.size(), 5u);
  ASSERT_EQ(soc.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const double x = static_cast<double>(i);
    EXPECT_EQ(power[i].time, Duration::seconds(x));
    EXPECT_EQ(soc[i].time, Duration::seconds(x));
    EXPECT_EQ(power[i].value, 1.5 * x);
    EXPECT_EQ(soc[i].value, 1.0 - 0.1 * x);
  }
}

TEST(SimRecorder, DecreasingTimeThrows) {
  Recorder rec;
  rec.start({"x"}, 2);
  rec.append(Duration::seconds(10), std::vector<double>{1.0});
  EXPECT_THROW(rec.append(Duration::seconds(9), std::vector<double>{2.0}),
               std::invalid_argument);
  EXPECT_EQ(rec.series("x").size(), 1u);
}

TEST(SimRecorder, EqualTimeThrows) {
  // No overwrite: a second row at the same time is a caller error.
  Recorder rec;
  rec.start({"x"}, 2);
  rec.append(Duration::zero(), std::vector<double>{1.0});
  EXPECT_THROW(rec.append(Duration::zero(), std::vector<double>{2.0}),
               std::invalid_argument);
  EXPECT_EQ(rec.series("x")[0].value, 1.0);
}

TEST(SimRecorder, RowOfTheWrongWidthThrows) {
  Recorder rec;
  rec.start({"a", "b"}, 1);
  EXPECT_THROW(rec.append(Duration::zero(), std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      rec.append(Duration::zero(), std::vector<double>{1.0, 2.0, 3.0}),
      std::invalid_argument);
  EXPECT_TRUE(rec.series("a").empty());
}

TEST(SimRecorder, DuplicateChannelThrows) {
  Recorder rec;
  EXPECT_THROW(rec.start({"a", "b", "a"}, 1), std::invalid_argument);
}

TEST(SimRecorder, UnknownChannelThrows) {
  Recorder rec;
  EXPECT_THROW(static_cast<void>(rec.series("nope")), std::invalid_argument);
  rec.start({"x"}, 1);
  EXPECT_THROW(static_cast<void>(rec.series("nope")), std::invalid_argument);
}

TEST(SimRecorder, ChannelsAreSorted) {
  Recorder rec;
  rec.start({"zeta", "alpha"}, 1);
  // Rows are in start() order; channels() lists names sorted.
  rec.append(Duration::zero(), std::vector<double>{1.0, 2.0});
  const std::vector<std::string> names = rec.channels();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
  EXPECT_EQ(rec.series("zeta")[0].value, 1.0);
  EXPECT_EQ(rec.series("alpha")[0].value, 2.0);
}

TEST(SimRecorder, StartDropsWhatWasRecorded) {
  Recorder rec;
  rec.start({"old"}, 1);
  rec.append(Duration::seconds(5), std::vector<double>{1.0});
  rec.start({"new"}, 1);
  EXPECT_FALSE(rec.has("old"));
  // The time column restarts too.
  rec.append(Duration::zero(), std::vector<double>{2.0});
  ASSERT_EQ(rec.series("new").size(), 1u);
  EXPECT_EQ(rec.series("new")[0].value, 2.0);
}

}  // namespace
}  // namespace dcs::sim
