#include "util/time_series.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dcs {
namespace {

TimeSeries ramp() {
  TimeSeries ts;
  ts.push_back(Duration::seconds(0), 0.0);
  ts.push_back(Duration::seconds(10), 10.0);
  ts.push_back(Duration::seconds(20), 0.0);
  return ts;
}

TEST(TimeSeries, PushBackEnforcesMonotoneTime) {
  TimeSeries ts;
  ts.push_back(Duration::seconds(1), 1.0);
  EXPECT_THROW((void)ts.push_back(Duration::seconds(1), 2.0), std::invalid_argument);
  EXPECT_THROW((void)ts.push_back(Duration::seconds(0.5), 2.0), std::invalid_argument);
}

TEST(TimeSeries, ConstructorValidatesOrder) {
  EXPECT_THROW((void)TimeSeries({{Duration::seconds(2), 0.0}, {Duration::seconds(1), 0.0}}),
               std::invalid_argument);
  EXPECT_NO_THROW(TimeSeries({{Duration::seconds(1), 0.0}, {Duration::seconds(2), 0.0}}));
}

TEST(TimeSeries, EmptyQueriesThrow) {
  const TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_THROW((void)ts.start_time(), std::invalid_argument);
  EXPECT_THROW((void)ts.end_time(), std::invalid_argument);
  EXPECT_THROW((void)ts.at(Duration::zero()), std::invalid_argument);
  EXPECT_THROW((void)ts.min_value(), std::invalid_argument);
  EXPECT_THROW((void)ts.integral(), std::invalid_argument);
}

TEST(TimeSeries, StepInterpolationHoldsValue) {
  const TimeSeries ts = ramp();
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(5)), 0.0);
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(10)), 10.0);
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(15)), 10.0);
}

TEST(TimeSeries, LinearInterpolation) {
  const TimeSeries ts = ramp();
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(5), Interpolation::kLinear), 5.0);
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(15), Interpolation::kLinear), 5.0);
}

TEST(TimeSeries, AtClampsOutsideRange) {
  const TimeSeries ts = ramp();
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(-5)), 0.0);
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(100)), 0.0);
}

TEST(TimeSeries, SliceShiftsToZero) {
  const TimeSeries ts = ramp();
  const TimeSeries s = ts.slice(Duration::seconds(5), Duration::seconds(15));
  EXPECT_DOUBLE_EQ(s.start_time().sec(), 0.0);
  EXPECT_DOUBLE_EQ(s.end_time().sec(), 10.0);
  EXPECT_DOUBLE_EQ(s.at(Duration::seconds(6)), 10.0);  // original t=11
}

TEST(TimeSeries, SliceRejectsInvertedRange) {
  EXPECT_THROW((void)ramp().slice(Duration::seconds(10), Duration::seconds(5)),
               std::invalid_argument);
}

TEST(TimeSeries, MapAndScale) {
  const TimeSeries doubled = ramp().scaled(2.0);
  EXPECT_DOUBLE_EQ(doubled.max_value(), 20.0);
  const TimeSeries shifted = ramp().map([](double v) { return v + 1.0; });
  EXPECT_DOUBLE_EQ(shifted.min_value(), 1.0);
}

TEST(TimeSeries, IntegralStepSemantics) {
  // 0 for 10 s then 10 for 10 s -> 100 units.
  EXPECT_DOUBLE_EQ(ramp().integral(), 100.0);
}

TEST(TimeSeries, TimeWeightedMean) {
  EXPECT_DOUBLE_EQ(ramp().time_weighted_mean(), 5.0);
}

TEST(TimeSeries, CursorAtMatchesBinarySearchEverywhere) {
  const TimeSeries ts = ramp();
  // Monotone forward walk, then backward jumps: the cursor overload must
  // return the exact same double as the binary-search overload at every
  // probe, for both interpolation modes.
  TimeSeries::Cursor step_cursor;
  TimeSeries::Cursor lerp_cursor;
  for (double t = -2.0; t <= 24.0; t += 0.5) {
    const Duration at = Duration::seconds(t);
    EXPECT_EQ(ts.at(at), ts.at(at, step_cursor)) << "t=" << t;
    EXPECT_EQ(ts.at(at, Interpolation::kLinear),
              ts.at(at, lerp_cursor, Interpolation::kLinear))
        << "t=" << t;
  }
  for (double t : {19.0, 3.5, 10.0, 0.0, 22.0, 7.25}) {
    const Duration at = Duration::seconds(t);
    EXPECT_EQ(ts.at(at), ts.at(at, step_cursor)) << "t=" << t;
  }
}

TEST(TimeSeries, CursorOnSingleSampleSeries) {
  TimeSeries ts;
  ts.push_back(Duration::seconds(3), 7.0);
  TimeSeries::Cursor cursor;
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(0), cursor), 7.0);
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(3), cursor), 7.0);
  EXPECT_DOUBLE_EQ(ts.at(Duration::seconds(9), cursor), 7.0);
}

TEST(TimeSeries, SpanOfSingleSampleIsZero) {
  TimeSeries ts;
  ts.push_back(Duration::seconds(3), 7.0);
  EXPECT_DOUBLE_EQ(ts.span().sec(), 0.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(), 7.0);
}

}  // namespace
}  // namespace dcs
