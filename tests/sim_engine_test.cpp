#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/recorder.h"

namespace dcs::sim {
namespace {

class Counter final : public Component {
 public:
  void tick(Duration now, Duration dt) override {
    ticks.push_back(now);
    last_dt = dt;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "counter"; }
  std::vector<Duration> ticks;
  Duration last_dt;
};

TEST(Engine, RejectsNonPositiveStep) {
  EXPECT_THROW((void)Engine(Duration::zero()), std::invalid_argument);
}

TEST(Engine, TicksComponentsInOrder) {
  Engine engine(Duration::seconds(1));
  std::vector<int> order;
  class Probe final : public Component {
   public:
    Probe(std::vector<int>* order, int id) : order_(order), id_(id) {}
    void tick(Duration, Duration) override { order_->push_back(id_); }
    [[nodiscard]] std::string_view name() const noexcept override { return "probe"; }
   private:
    std::vector<int>* order_;
    int id_;
  };
  Probe a(&order, 1), b(&order, 2);
  engine.add(&a);
  engine.add(&b);
  engine.step_once();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Engine, RunUntilCountsTicks) {
  Engine engine(Duration::seconds(1));
  Counter c;
  engine.add(&c);
  const std::size_t n = engine.run_until(Duration::seconds(10));
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(c.ticks.size(), 10u);
  EXPECT_DOUBLE_EQ(c.ticks.front().sec(), 0.0);
  EXPECT_DOUBLE_EQ(c.ticks.back().sec(), 9.0);
  EXPECT_DOUBLE_EQ(engine.now().sec(), 10.0);
}

TEST(Engine, ScheduledEventsFireBeforeTick) {
  Engine engine(Duration::seconds(1));
  Counter c;
  engine.add(&c);
  bool fired = false;
  engine.schedule(Duration::seconds(5), [&] { fired = true; });
  engine.run_until(Duration::seconds(5));
  EXPECT_FALSE(fired);  // event at t=5 fires when the t=5 tick runs
  engine.run_until(Duration::seconds(6));
  EXPECT_TRUE(fired);
}

TEST(Engine, CannotSchedulePast) {
  Engine engine(Duration::seconds(1));
  engine.run_until(Duration::seconds(5));
  EXPECT_THROW((void)engine.schedule(Duration::seconds(1), [] {}),
               std::invalid_argument);
}

TEST(Engine, RequestStopExitsLoop) {
  Engine engine(Duration::seconds(1));
  class Stopper final : public Component {
   public:
    explicit Stopper(Engine* e) : engine_(e) {}
    void tick(Duration now, Duration) override {
      if (now >= Duration::seconds(3)) engine_->request_stop();
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "stopper"; }
   private:
    Engine* engine_;
  };
  Stopper s(&engine);
  engine.add(&s);
  const std::size_t n = engine.run_until(Duration::seconds(100));
  EXPECT_EQ(n, 4u);
}

TEST(Engine, NullComponentRejected) {
  Engine engine;
  EXPECT_THROW((void)engine.add(nullptr), std::invalid_argument);
}

TEST(Engine, OffGridScheduleRejected) {
  // An off-grid event would silently slip to the next tick boundary in
  // fire_due(); the engine requires grid alignment instead.
  Engine engine(Duration::seconds(1));
  EXPECT_THROW((void)engine.schedule(Duration::seconds(2.5), [] {}),
               std::invalid_argument);
  // Exactly-on-grid times are accepted, including t=0 and large multiples.
  engine.schedule(Duration::zero(), [] {});
  engine.schedule(Duration::seconds(5), [] {});
  engine.schedule(Duration::hours(24), [] {});
}

TEST(Engine, PreRunStopRequestHonored) {
  // A stop requested between setup and run (e.g. a drain signal) must not
  // be clobbered by run_until: zero ticks run.
  Engine engine(Duration::seconds(1));
  Counter c;
  engine.add(&c);
  engine.request_stop();
  EXPECT_EQ(engine.run_until(Duration::seconds(10)), 0u);
  EXPECT_TRUE(c.ticks.empty());
  EXPECT_DOUBLE_EQ(engine.now().sec(), 0.0);
  // clear_stop() re-arms the engine for an explicit rerun.
  engine.clear_stop();
  EXPECT_EQ(engine.run_until(Duration::seconds(10)), 10u);
  EXPECT_EQ(c.ticks.size(), 10u);
}

TEST(EventQueue, FiresInTimeOrderWithFifoTieBreak) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Duration::seconds(2), [&] { order.push_back(2); });
  q.schedule(Duration::seconds(1), [&] { order.push_back(1); });
  q.schedule(Duration::seconds(2), [&] { order.push_back(3); });
  EXPECT_EQ(q.fire_due(Duration::seconds(2)), 3u);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(EventQueue, OnlyDueEventsFire) {
  EventQueue q;
  int fired = 0;
  q.schedule(Duration::seconds(1), [&] { ++fired; });
  q.schedule(Duration::seconds(10), [&] { ++fired; });
  EXPECT_EQ(q.fire_due(Duration::seconds(5)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time().sec(), 10.0);
}

TEST(EventQueue, NextTimeOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.next_time(), std::invalid_argument);
  EXPECT_THROW((void)q.schedule(Duration::zero(), nullptr), std::invalid_argument);
}

TEST(Recorder, RecordsAndRetrievesChannels) {
  Recorder rec;
  rec.record("power", Duration::seconds(0), 1.0);
  rec.record("power", Duration::seconds(1), 2.0);
  rec.record("temp", Duration::seconds(0), 25.0);
  EXPECT_TRUE(rec.has("power"));
  EXPECT_FALSE(rec.has("missing"));
  EXPECT_EQ(rec.series("power").size(), 2u);
  EXPECT_EQ(rec.channels().size(), 2u);
  EXPECT_THROW((void)rec.series("missing"), std::invalid_argument);
}

TEST(Recorder, SameTimeOverwrites) {
  Recorder rec;
  rec.record("x", Duration::seconds(1), 1.0);
  rec.record("x", Duration::seconds(1), 9.0);
  ASSERT_EQ(rec.series("x").size(), 1u);
  EXPECT_DOUBLE_EQ(rec.series("x")[0].value, 9.0);
}

TEST(Recorder, ClearEmptiesEverything) {
  Recorder rec;
  rec.record("x", Duration::zero(), 1.0);
  rec.clear();
  EXPECT_FALSE(rec.has("x"));
  EXPECT_TRUE(rec.channels().empty());
}

}  // namespace
}  // namespace dcs::sim
