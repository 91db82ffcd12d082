#include "compute/pcm_heatsink.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/datacenter.h"
#include "workload/yahoo_trace.h"

namespace dcs::compute {
namespace {

PcmHeatSink small_pcm(double watts_minutes = 90.0 * 2.0) {
  PcmHeatSink::Params p;
  p.latent_capacity = Energy::joules(watts_minutes * 60.0);
  return PcmHeatSink(p);
}

/// Whole seconds at a full sprint (125 W chip, 90 W over the sustainable
/// 35 W) until a copy of `pcm` exhausts: its unmelted capacity, read through
/// exhausted() alone.
int sprint_seconds_left(PcmHeatSink pcm) {
  int seconds = 0;
  while (!pcm.exhausted()) {
    pcm.step(Power::watts(125.0), Duration::seconds(1));
    ++seconds;
  }
  return seconds;
}

TEST(PcmHeatSink, StartsSolid) {
  EXPECT_FALSE(PcmHeatSink().exhausted());
  // 2 "full-sprint minutes" of capacity at 90 W excess.
  EXPECT_EQ(sprint_seconds_left(small_pcm()), 120);
}

TEST(PcmHeatSink, SustainablePowerNeverMelts) {
  PcmHeatSink pcm;
  for (int i = 0; i < 100000; ++i) {
    pcm.step(Power::watts(35.0), Duration::seconds(1));
  }
  // The default package holds a full sprint for 30 minutes.
  EXPECT_EQ(sprint_seconds_left(pcm), 30 * 60);
}

TEST(PcmHeatSink, MeltsAtExcessRate) {
  PcmHeatSink pcm = small_pcm();
  // Full sprint: 125 W chip = 90 W over the 35 W sustainable level.
  for (int i = 0; i < 60; ++i) pcm.step(Power::watts(125.0), Duration::seconds(1));
  EXPECT_EQ(sprint_seconds_left(pcm), 60);
  for (int i = 0; i < 59; ++i) pcm.step(Power::watts(125.0), Duration::seconds(1));
  EXPECT_FALSE(pcm.exhausted());
  pcm.step(Power::watts(125.0), Duration::seconds(1));
  EXPECT_TRUE(pcm.exhausted());
}

TEST(PcmHeatSink, ResolidifiesWithSpareCapacity) {
  PcmHeatSink pcm = small_pcm();
  for (int i = 0; i < 60; ++i) pcm.step(Power::watts(125.0), Duration::seconds(1));
  // Idle chip (5 W): 30 W of spare removal re-freezes. 90 W x 60 s melted,
  // 30 W x 60 s frozen: 3,600 J of the 10,800 J stay melted, so 7,200 J
  // (80 s at 90 W) are left.
  for (int i = 0; i < 60; ++i) pcm.step(Power::watts(5.0), Duration::seconds(1));
  EXPECT_EQ(sprint_seconds_left(pcm), 80);
}

TEST(PcmHeatSink, NeverOverMeltsOrUnderFreezes) {
  PcmHeatSink pcm = small_pcm(10.0);  // 600 J
  for (int i = 0; i < 1000; ++i) pcm.step(Power::watts(200.0), Duration::seconds(1));
  EXPECT_TRUE(pcm.exhausted());
  // Melt stops at the capacity, so one second of spare removal (35 J)
  // already re-solidifies some of it.
  pcm.step(Power::zero(), Duration::seconds(1));
  EXPECT_FALSE(pcm.exhausted());
  for (int i = 0; i < 100000; ++i) pcm.step(Power::zero(), Duration::seconds(1));
  // Fully solid again, and not beyond: 600 J at 90 W is 7 whole seconds.
  EXPECT_EQ(sprint_seconds_left(pcm), 7);
}

TEST(PcmHeatSink, ResetRestoresSolid) {
  PcmHeatSink pcm = small_pcm();
  pcm.step(Power::watts(125.0), Duration::minutes(1));
  pcm.reset();
  EXPECT_EQ(sprint_seconds_left(pcm), 120);
}

TEST(PcmHeatSink, Validation) {
  PcmHeatSink::Params p;
  p.latent_capacity = Energy::zero();
  EXPECT_THROW((void)PcmHeatSink{p}, std::invalid_argument);
  p = {};
  p.sustainable = Power::zero();
  EXPECT_THROW((void)PcmHeatSink{p}, std::invalid_argument);
  PcmHeatSink pcm;
  EXPECT_THROW((void)pcm.step(Power::watts(-1), Duration::seconds(1)),
               std::invalid_argument);
  EXPECT_THROW((void)pcm.step(Power::watts(1), Duration::zero()),
               std::invalid_argument);
}

TEST(PcmIntegration, DefaultPackageDoesNotBindBeforeDcLevel) {
  // The paper assumes chip sprinting is "already safely enabled"; the
  // default PCM must not change any data-center result.
  core::DataCenterConfig big = {};
  big.fleet.pdu_count = 2;
  core::DataCenterConfig tiny = big;
  tiny.chip_pcm.latent_capacity = Energy::joules(90.0 * 45.0);  // ~45 s
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(10);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  core::GreedyStrategy greedy;
  const core::RunResult with_default = core::DataCenter(big).run(trace, &greedy);
  const core::RunResult with_tiny = core::DataCenter(tiny).run(trace, &greedy);
  // Default: the DC level limits first, same as before the PCM existed.
  EXPECT_GT(with_default.performance_factor, 1.5);
  // Tiny PCM: the chip level ends the sprint within about a minute.
  EXPECT_LT(with_tiny.performance_factor, with_default.performance_factor);
  EXPECT_LT(with_tiny.sprint_time.min(), 2.0);
}

}  // namespace
}  // namespace dcs::compute
