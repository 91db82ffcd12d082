#include <gtest/gtest.h>

#include <stdexcept>

#include "workload/admission.h"
#include "workload/predictor.h"
#include "workload/yahoo_trace.h"

namespace dcs::workload {
namespace {

TEST(BurstTruth, MeasuresYahooBurst) {
  YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(10);
  const BurstTruth truth = measure_burst_truth(generate_yahoo_trace(p));
  EXPECT_NEAR(truth.duration.min(), 10.0, 0.1);
  EXPECT_NEAR(truth.max_degree, 3.0, 1e-9);
  EXPECT_NEAR(truth.mean_degree, 3.0, 0.05);
}

TEST(BurstTruth, NoBurstFloorsAtOne) {
  TimeSeries flat;
  flat.push_back(Duration::zero(), 0.5);
  flat.push_back(Duration::minutes(1), 0.5);
  const BurstTruth truth = measure_burst_truth(flat);
  EXPECT_DOUBLE_EQ(truth.duration.sec(), 0.0);
  EXPECT_DOUBLE_EQ(truth.max_degree, 1.0);
  EXPECT_DOUBLE_EQ(truth.mean_degree, 1.0);
}

TEST(ErrorfulForecast, AppliesRelativeError) {
  BurstTruth truth;
  truth.duration = Duration::minutes(10);
  const ErrorfulForecast over(truth, 0.5);
  EXPECT_NEAR(over.predicted_duration().min(), 15.0, 1e-9);
  EXPECT_DOUBLE_EQ(over.apply(2.0), 3.0);
  const ErrorfulForecast under(truth, -0.5);
  EXPECT_NEAR(under.predicted_duration().min(), 5.0, 1e-9);
  const ErrorfulForecast perfect(truth, 0.0);
  EXPECT_NEAR(perfect.predicted_duration().min(), 10.0, 1e-9);
}

TEST(ErrorfulForecast, MinusHundredPercentIsZero) {
  BurstTruth truth;
  truth.duration = Duration::minutes(10);
  const ErrorfulForecast f(truth, -1.0);
  EXPECT_DOUBLE_EQ(f.predicted_duration().sec(), 0.0);
  EXPECT_THROW((void)ErrorfulForecast(truth, -1.5), std::invalid_argument);
}

TEST(Admission, ServesUpToCapacity) {
  AdmissionController a;
  EXPECT_DOUBLE_EQ(a.admit(0.5, 1.0, Duration::seconds(1)), 0.5);
  EXPECT_DOUBLE_EQ(a.admit(2.0, 1.0, Duration::seconds(1)), 1.0);
}

TEST(Admission, IntegratesServedAndDropped) {
  AdmissionController a;
  a.admit(2.0, 1.0, Duration::seconds(10));  // serve 10, drop 10
  a.admit(0.5, 1.0, Duration::seconds(10));  // serve 5, drop 0
  EXPECT_DOUBLE_EQ(a.served_integral(), 15.0);
  EXPECT_DOUBLE_EQ(a.dropped_integral(), 10.0);
  EXPECT_DOUBLE_EQ(a.offered_integral(), 25.0);
  EXPECT_DOUBLE_EQ(a.drop_fraction(), 0.4);
  EXPECT_DOUBLE_EQ(a.degraded_time().sec(), 10.0);
}

TEST(Admission, NoOfferNoDropFraction) {
  const AdmissionController a;
  EXPECT_DOUBLE_EQ(a.drop_fraction(), 0.0);
}

TEST(Admission, Validation) {
  AdmissionController a;
  EXPECT_THROW((void)a.admit(-1.0, 1.0, Duration::seconds(1)), std::invalid_argument);
  EXPECT_THROW((void)a.admit(1.0, -1.0, Duration::seconds(1)), std::invalid_argument);
  EXPECT_THROW((void)a.admit(1.0, 1.0, Duration::zero()), std::invalid_argument);
}

}  // namespace
}  // namespace dcs::workload
