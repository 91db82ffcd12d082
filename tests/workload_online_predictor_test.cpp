#include "workload/online_predictor.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "workload/ms_trace.h"

namespace dcs::workload {
namespace {

void feed_burst(OnlineBurstPredictor& p, double degree, int seconds) {
  for (int i = 0; i < seconds; ++i) p.observe(degree, Duration::seconds(1));
  p.observe(0.5, Duration::seconds(1));  // close the burst
}

TEST(OnlinePredictor, PriorsBeforeAnyBurst) {
  const OnlineBurstPredictor p;
  EXPECT_EQ(p.bursts_completed(), 0u);
  EXPECT_NEAR(p.predicted_duration().min(), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(p.predicted_max_degree(), 3.0);
}

TEST(OnlinePredictor, LearnsFirstBurstExactly) {
  OnlineBurstPredictor p;
  feed_burst(p, 2.5, 300);
  EXPECT_EQ(p.bursts_completed(), 1u);
  EXPECT_NEAR(p.predicted_duration().sec(), 300.0, 1e-9);
  EXPECT_NEAR(p.predicted_max_degree(), 2.5, 1e-9);
}

TEST(OnlinePredictor, ExponentiallyWeightsHistory) {
  OnlineBurstPredictor p(
      {.learning_rate = 0.5});
  feed_burst(p, 2.0, 100);
  feed_burst(p, 3.0, 300);
  EXPECT_EQ(p.bursts_completed(), 2u);
  EXPECT_NEAR(p.predicted_duration().sec(), 200.0, 1e-9);  // 0.5*100 + 0.5*300
  EXPECT_NEAR(p.predicted_max_degree(), 2.5, 1e-9);        // 0.5*2 + 0.5*3
}

TEST(OnlinePredictor, CurrentBurstRaisesFloor) {
  OnlineBurstPredictor p;
  feed_burst(p, 2.0, 60);
  // A burst in progress longer than the estimate floors the forecast.
  for (int i = 0; i < 200; ++i) p.observe(3.5, Duration::seconds(1));
  EXPECT_TRUE(p.in_burst());
  EXPECT_NEAR(p.predicted_duration().sec(), 200.0, 1e-9);
  EXPECT_NEAR(p.predicted_max_degree(), 3.5, 1e-9);
}

TEST(OnlinePredictor, SubThresholdDemandIsNotABurst) {
  OnlineBurstPredictor p;
  for (int i = 0; i < 1000; ++i) p.observe(0.99, Duration::seconds(1));
  EXPECT_FALSE(p.in_burst());
  EXPECT_EQ(p.bursts_completed(), 0u);
}

TEST(OnlinePredictor, CountsMsTraceBursts) {
  OnlineBurstPredictor p;
  const TimeSeries trace = generate_ms_trace();
  for (const Sample& s : trace.samples()) {
    p.observe(s.value, Duration::seconds(1));
  }
  // The synthetic MS trace has 3-4 over-capacity episodes, with the trace
  // ending below capacity (so every burst completes).
  EXPECT_GE(p.bursts_completed(), 3u);
  EXPECT_LE(p.bursts_completed(), 6u);
  EXPECT_GT(p.predicted_max_degree(), 1.5);
}

TEST(OnlinePredictor, Validation) {
  OnlineBurstPredictor::Params bad;
  bad.learning_rate = 0.0;
  EXPECT_THROW((void)OnlineBurstPredictor{bad}, std::invalid_argument);
  bad = {};
  bad.prior_max_degree = 0.5;  // below the normal degree
  EXPECT_THROW((void)OnlineBurstPredictor{bad}, std::invalid_argument);
  OnlineBurstPredictor p;
  EXPECT_THROW((void)p.observe(-1.0, Duration::seconds(1)), std::invalid_argument);
  EXPECT_THROW((void)p.observe(1.0, Duration::zero()), std::invalid_argument);
}

}  // namespace
}  // namespace dcs::workload
