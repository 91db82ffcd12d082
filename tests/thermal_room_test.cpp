#include "thermal/room_model.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dcs::thermal {
namespace {

RoomModel make_room() {
  RoomModel::Params p;
  p.calibration_power = Power::megawatts(10);
  return RoomModel(p);
}

TEST(RoomModel, StartsAtSetpoint) {
  const RoomModel room = make_room();
  EXPECT_DOUBLE_EQ(room.temperature().c(), 25.0);
  EXPECT_FALSE(room.over_threshold());
}

TEST(RoomModel, SchneiderCalibration_FullGapHitsThresholdAtTenMinutes) {
  // The CFD study [22]: a heat gap equal to peak-normal power reaches the
  // critical threshold in ~10 minutes.
  RoomModel room = make_room();
  for (int i = 0; i < 595; ++i) {
    room.step(Power::megawatts(10), Power::zero(), Duration::seconds(1));
  }
  EXPECT_FALSE(room.over_threshold());  // just under at ~9:55
  for (int i = 0; i < 10; ++i) {
    room.step(Power::megawatts(10), Power::zero(), Duration::seconds(1));
  }
  EXPECT_NEAR(room.rise().c(), 10.0, 0.1);
  EXPECT_TRUE(room.over_threshold());
}

TEST(RoomModel, SchneiderCalibration_ResumeAtFiveMinutesNeverReachesThreshold) {
  // Cooling restored at minute 5: the threshold is never reached.
  RoomModel room = make_room();
  for (int i = 0; i < 300; ++i) {
    room.step(Power::megawatts(10), Power::zero(), Duration::seconds(1));
  }
  EXPECT_NEAR(room.rise().c(), 5.0, 1e-6);
  for (int i = 0; i < 3600; ++i) {
    room.step(Power::megawatts(10), Power::megawatts(10), Duration::seconds(1));
    EXPECT_FALSE(room.over_threshold());
  }
  // And it recovers toward the setpoint.
  EXPECT_LT(room.rise().c(), 1.0);
}

TEST(RoomModel, RiseProportionalToGap) {
  RoomModel room = make_room();
  for (int i = 0; i < 60; ++i) {
    room.step(Power::megawatts(15), Power::megawatts(10), Duration::seconds(1));
  }
  // 5 MW gap for 1 minute = 0.5 C with the default calibration.
  EXPECT_NEAR(room.rise().c(), 0.5, 1e-9);
}

TEST(RoomModel, NeverUndershootsSetpoint) {
  RoomModel room = make_room();
  for (int i = 0; i < 1000; ++i) {
    room.step(Power::zero(), Power::megawatts(10), Duration::seconds(1));
  }
  EXPECT_DOUBLE_EQ(room.rise().c(), 0.0);
  EXPECT_DOUBLE_EQ(room.temperature().c(), 25.0);
}

TEST(RoomModel, PeakTemperatureSticks) {
  RoomModel room = make_room();
  for (int i = 0; i < 120; ++i) {
    room.step(Power::megawatts(10), Power::zero(), Duration::seconds(1));
  }
  const Temperature peak = room.peak_temperature();
  EXPECT_NEAR(peak.c(), 27.0, 1e-6);
  for (int i = 0; i < 3600; ++i) {
    room.step(Power::zero(), Power::megawatts(10), Duration::seconds(1));
  }
  EXPECT_DOUBLE_EQ(room.peak_temperature().c(), peak.c());
}

TEST(RoomModel, TimeToThreshold) {
  RoomModel room = make_room();
  const auto time_left = [&room](Power gap) {
    return room.time_to_threshold_from(room.rise(), gap);
  };
  EXPECT_NEAR(time_left(Power::megawatts(10)).min(), 10.0, 1e-9);
  EXPECT_NEAR(time_left(Power::megawatts(20)).min(), 5.0, 1e-9);
  EXPECT_TRUE(time_left(Power::zero()).is_infinite());
  EXPECT_TRUE(time_left(Power::megawatts(-1)).is_infinite());
  // Partially heated room has less margin.
  for (int i = 0; i < 300; ++i) {
    room.step(Power::megawatts(10), Power::zero(), Duration::seconds(1));
  }
  EXPECT_NEAR(time_left(Power::megawatts(10)).min(), 5.0, 1e-6);
  // Past the threshold nothing is left.
  EXPECT_EQ(room.time_to_threshold_from(Temperature::celsius(11.0),
                                        Power::megawatts(10)),
            Duration::zero());
}

TEST(RoomModel, Validation) {
  RoomModel::Params p;
  p.calibration_power = Power::zero();
  EXPECT_THROW((void)RoomModel{p}, std::invalid_argument);
  p = {};
  p.calibration_power = Power::watts(1);
  p.threshold_rise = Temperature::celsius(0);
  EXPECT_THROW((void)RoomModel{p}, std::invalid_argument);
  RoomModel room = make_room();
  EXPECT_THROW((void)room.step(Power::megawatts(-1), Power::zero(), Duration::seconds(1)),
               std::invalid_argument);
  EXPECT_THROW((void)room.step(Power::zero(), Power::zero(), Duration::zero()),
               std::invalid_argument);
}

}  // namespace
}  // namespace dcs::thermal
