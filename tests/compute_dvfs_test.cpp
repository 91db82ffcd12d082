#include "compute/dvfs.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/datacenter.h"
#include "workload/yahoo_trace.h"

namespace dcs::compute {
namespace {

TEST(DvfsModel, CubicPowerLaw) {
  const DvfsModel m;
  EXPECT_DOUBLE_EQ(m.power_multiplier(1.0), 1.0);
  EXPECT_NEAR(m.power_multiplier(1.2), 1.728, 1e-9);
  EXPECT_NEAR(m.power_multiplier(0.5), 0.125, 1e-9);
}

TEST(DvfsModel, PerformanceIsFrequency) {
  const DvfsModel m;
  EXPECT_DOUBLE_EQ(m.performance(1.3), 1.3);
  EXPECT_DOUBLE_EQ(m.performance(0.8), 0.8);
}

TEST(DvfsModel, Validation) {
  DvfsModel::Params p;
  p.min_multiplier = 0.0;
  EXPECT_THROW((void)DvfsModel{p}, std::invalid_argument);
  p = {};
  p.max_multiplier = 0.4;  // below min
  EXPECT_THROW((void)DvfsModel{p}, std::invalid_argument);
  const DvfsModel m;
  EXPECT_THROW((void)m.power_multiplier(1.4), std::invalid_argument);
  EXPECT_THROW((void)m.performance(0.4), std::invalid_argument);
}

TEST(DvfsCappedMode, BoostsWithinRatingsOnly) {
  core::DataCenterConfig config;
  config.fleet.pdu_count = 2;
  core::DataCenter dc(config);
  workload::YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(10);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  const core::RunResult r =
      dc.run(trace, nullptr, {.mode = core::Mode::kDvfsCapped, .record = true});
  EXPECT_FALSE(r.tripped);
  EXPECT_GT(r.performance_factor, 1.0);
  // Frequency never exceeds the DVFS ceiling, loads never exceed ratings.
  EXPECT_LE(r.recorder.series("degree").max_value(), 1.3 + 1e-9);
  EXPECT_LE(r.recorder.series("dc_load_mw").max_value(),
            config.dc_rated().mw() + 1e-6);
  EXPECT_DOUBLE_EQ(r.ups_energy.j(), 0.0);
}

TEST(DvfsCappedMode, OrderingDvfsBelowCoreCappingBelowSprinting) {
  // The paper's hierarchy: DVFS capping < activating extra cores within
  // ratings < Data Center Sprinting. The cubic power law makes frequency
  // boost much costlier per unit performance than waking efficient cores.
  core::DataCenterConfig config;
  config.fleet.pdu_count = 2;
  core::DataCenter dc(config);
  workload::YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(10);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  const double dvfs =
      dc.run(trace, nullptr, {.mode = core::Mode::kDvfsCapped}).performance_factor;
  const double cores =
      dc.run(trace, nullptr, {.mode = core::Mode::kPowerCapped}).performance_factor;
  core::GreedyStrategy greedy;
  const double sprint = dc.run(trace, &greedy).performance_factor;
  EXPECT_LT(dvfs, cores);
  EXPECT_LT(cores, sprint);
  EXPECT_GT(dvfs, 1.0);
}

TEST(DvfsCappedMode, IdleDemandStaysAtNominalFrequency) {
  core::DataCenterConfig config;
  config.fleet.pdu_count = 2;
  core::DataCenter dc(config);
  TimeSeries trace;
  trace.push_back(Duration::zero(), 0.6);
  trace.push_back(Duration::minutes(5), 0.6);
  const core::RunResult r =
      dc.run(trace, nullptr, {.mode = core::Mode::kDvfsCapped, .record = true});
  EXPECT_DOUBLE_EQ(r.recorder.series("degree").max_value(), 1.0);
  EXPECT_NEAR(r.performance_factor, 1.0, 1e-9);
}

}  // namespace
}  // namespace dcs::compute
