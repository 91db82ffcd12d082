#include "util/units.h"

#include <gtest/gtest.h>

namespace dcs {
namespace {

TEST(Duration, FactoryUnitsAgree) {
  EXPECT_DOUBLE_EQ(Duration::minutes(1).sec(), 60.0);
  EXPECT_DOUBLE_EQ(Duration::hours(1).sec(), 3600.0);
  EXPECT_DOUBLE_EQ(Duration::seconds(90).min(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::minutes(90).hrs(), 1.5);
}

TEST(Duration, Arithmetic) {
  const Duration d = Duration::seconds(30) + Duration::minutes(1);
  EXPECT_DOUBLE_EQ(d.sec(), 90.0);
  EXPECT_DOUBLE_EQ((d - Duration::seconds(30)).sec(), 60.0);
  EXPECT_DOUBLE_EQ((d * 2.0).sec(), 180.0);
  EXPECT_DOUBLE_EQ((2.0 * d).sec(), 180.0);
  EXPECT_DOUBLE_EQ((d / 3.0).sec(), 30.0);
  EXPECT_DOUBLE_EQ(d / Duration::seconds(45), 2.0);
}

TEST(Duration, CompoundAssignment) {
  Duration d = Duration::seconds(10);
  d += Duration::seconds(5);
  EXPECT_DOUBLE_EQ(d.sec(), 15.0);
  d -= Duration::seconds(3);
  EXPECT_DOUBLE_EQ(d.sec(), 12.0);
  d *= 0.5;
  EXPECT_DOUBLE_EQ(d.sec(), 6.0);
}

TEST(Duration, Comparisons) {
  EXPECT_LT(Duration::seconds(59), Duration::minutes(1));
  EXPECT_GE(Duration::minutes(1), Duration::seconds(60));
  EXPECT_EQ(Duration::hours(2), Duration::minutes(120));
}

TEST(Duration, Infinity) {
  EXPECT_TRUE(Duration::infinity().is_infinite());
  EXPECT_FALSE(Duration::seconds(1e12).is_infinite());
  EXPECT_GT(Duration::infinity(), Duration::hours(1e6));
}

TEST(Power, FactoryUnitsAgree) {
  EXPECT_DOUBLE_EQ(Power::kilowatts(1).w(), 1000.0);
  EXPECT_DOUBLE_EQ(Power::megawatts(1).kw(), 1000.0);
  EXPECT_DOUBLE_EQ(Power::watts(5e6).mw(), 5.0);
}

TEST(Power, Arithmetic) {
  const Power p = Power::watts(100) + Power::watts(50);
  EXPECT_DOUBLE_EQ(p.w(), 150.0);
  EXPECT_DOUBLE_EQ((p - Power::watts(100)).w(), 50.0);
  EXPECT_DOUBLE_EQ((p * 2.0).w(), 300.0);
  EXPECT_DOUBLE_EQ((p / 3.0).w(), 50.0);
  EXPECT_DOUBLE_EQ(p / Power::watts(75), 2.0);
  EXPECT_DOUBLE_EQ((-p).w(), -150.0);
}

TEST(Energy, FactoryUnitsAgree) {
  EXPECT_DOUBLE_EQ(Energy::watt_hours(1).j(), 3600.0);
  EXPECT_DOUBLE_EQ(Energy::kilowatt_hours(1).wh(), 1000.0);
  EXPECT_DOUBLE_EQ(Energy::joules(7.2e6).kwh(), 2.0);
}

TEST(CrossDimension, PowerTimesDurationIsEnergy) {
  const Energy e = Power::watts(55) * Duration::minutes(6);
  EXPECT_DOUBLE_EQ(e.j(), 55.0 * 360.0);
  EXPECT_DOUBLE_EQ((Duration::minutes(6) * Power::watts(55)).j(), e.j());
}

TEST(CrossDimension, EnergyOverDurationIsPower) {
  const Power p = Energy::watt_hours(10) / Duration::hours(2);
  EXPECT_DOUBLE_EQ(p.w(), 5.0);
}

TEST(CrossDimension, EnergyOverPowerIsDuration) {
  // The paper's UPS sizing: 5.5 Wh at 55 W lasts 6 minutes.
  const Duration d = Energy::watt_hours(5.5) / Power::watts(55);
  EXPECT_DOUBLE_EQ(d.min(), 6.0);
}

TEST(Charge, AmpHoursAndEnergy) {
  const Charge q = Charge::amp_hours(0.5);
  EXPECT_DOUBLE_EQ(q.c(), 1800.0);
  // 0.5 Ah at 11 V = 5.5 Wh, the paper's per-server battery.
  EXPECT_DOUBLE_EQ(q.at_volts(11.0).wh(), 5.5);
}

TEST(Temperature, Arithmetic) {
  const Temperature t = Temperature::celsius(25) + Temperature::celsius(10);
  EXPECT_DOUBLE_EQ(t.c(), 35.0);
  EXPECT_GT(t, Temperature::celsius(34.9));
  EXPECT_DOUBLE_EQ((t * 0.5).c(), 17.5);
}

TEST(ToString, PicksSensibleUnits) {
  EXPECT_EQ(to_string(Duration::seconds(30)), "30 s");
  EXPECT_EQ(to_string(Duration::minutes(5)), "5 min");
  EXPECT_EQ(to_string(Duration::hours(2)), "2 h");
  EXPECT_EQ(to_string(Duration::infinity()), "inf");
  EXPECT_EQ(to_string(Energy::watt_hours(5.5)), "5.5 Wh");
}

TEST(Defaults, ZeroInitialized) {
  EXPECT_DOUBLE_EQ(Duration{}.sec(), 0.0);
  EXPECT_DOUBLE_EQ(Power{}.w(), 0.0);
  EXPECT_DOUBLE_EQ(Energy{}.j(), 0.0);
  EXPECT_EQ(Power::zero(), Power{});
  EXPECT_EQ(Energy::zero(), Energy{});
  EXPECT_EQ(Duration::zero(), Duration{});
}

}  // namespace
}  // namespace dcs
