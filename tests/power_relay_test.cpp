#include <gtest/gtest.h>

#include "power/relay.h"

namespace dcs::power {
namespace {

TEST(Relay, StartsOpenByDefault) {
  const Relay r;
  EXPECT_FALSE(r.closed());
  EXPECT_FALSE(r.switching());
}

TEST(Relay, SwitchesAfterDelay) {
  Relay r(Duration::seconds(0.010));
  r.command(true);
  EXPECT_TRUE(r.switching());
  EXPECT_FALSE(r.closed());
  r.tick(Duration::seconds(0.005));
  EXPECT_FALSE(r.closed());  // still inside the delay
  r.tick(Duration::seconds(0.005));
  EXPECT_TRUE(r.closed());
  EXPECT_FALSE(r.switching());
}

TEST(Relay, RedundantCommandIsNoOp) {
  Relay r(Duration::seconds(0.010), /*initially_closed=*/true);
  r.command(true);
  EXPECT_FALSE(r.switching());
}

TEST(Relay, RetargetDuringSwitch) {
  Relay r(Duration::seconds(0.010));
  r.command(true);
  r.tick(Duration::seconds(0.005));
  r.command(false);  // change of mind restarts the delay
  r.tick(Duration::seconds(0.010));
  EXPECT_FALSE(r.closed());
  EXPECT_FALSE(r.switching());
}

TEST(Relay, LargeTickSettlesImmediately) {
  Relay r(Duration::seconds(0.010));
  r.command(true);
  r.tick(Duration::seconds(1));
  EXPECT_TRUE(r.closed());
}

}  // namespace
}  // namespace dcs::power
