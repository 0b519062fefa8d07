// Unit tests for the discrete-event engine (sim/simulator.h, event_queue.h)
// and crash tracking (sim/crash.h).
#include <gtest/gtest.h>

#include <vector>

#include "sim/crash.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace hyco {
namespace {

void run_next(EventQueue& q) {
  const TickSpan span = q.pop_tick(1);
  ASSERT_EQ(span.count, 1u);
  ASSERT_EQ(span.items[0].kind, TickItem::Kind::Callback);
  q.take_callback(span.items[0].slot)();
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) run_next(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) run_next(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RejectsNegativeTime) {
  EventQueue q;
  EXPECT_THROW(q.push(-1, [] {}), ContractViolation);
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop_tick(1), ContractViolation);
}

TEST(EventQueue, PushBeforeLastPoppedTimeThrows) {
  EventQueue q;
  const Message m = Message::value_msg(0, 1);
  q.push_deliver(40, 0, 1, m);
  q.push_deliver(90, 0, 1, m);
  EXPECT_EQ(q.pop_tick(8).at, 40);
  EXPECT_THROW(q.push_deliver(39, 0, 1, m), ContractViolation);
  EXPECT_THROW(q.push(0, [] {}), ContractViolation);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pool_in_use(), 0u);  // a refused push parks no closure
  // The last popped time itself is still open.
  q.push_deliver(40, 0, 1, m);
  const TickSpan span = q.pop_tick(8);
  EXPECT_EQ(span.at, 40);
  EXPECT_EQ(span.count, 1u);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim(1);
  SimTime seen = -1;
  sim.schedule_in(100, [&] { seen = sim.now(); });
  EXPECT_EQ(sim.run(), StopReason::Quiescent);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, NestedSchedulingUsesCurrentTime) {
  Simulator sim(1);
  std::vector<SimTime> times;
  sim.schedule_in(10, [&] {
    times.push_back(sim.now());
    sim.schedule_in(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 10);
  EXPECT_EQ(times[1], 15);
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator sim(1);
  sim.schedule_in(50, [&] {
    EXPECT_THROW(sim.schedule_at(10, [] {}), ContractViolation);
  });
  sim.run();
}

TEST(Simulator, EventLimitStops) {
  Simulator sim(1);
  // Self-perpetuating event chain.
  std::function<void()> tick = [&] { sim.schedule_in(1, tick); };
  sim.schedule_in(0, tick);
  EXPECT_EQ(sim.run(100), StopReason::EventLimit);
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, RunTickExecutesOneTickAtATime) {
  Simulator sim(1);
  std::vector<int> fired;
  sim.schedule_in(5, [&] { fired.push_back(0); });
  sim.schedule_in(5, [&] { fired.push_back(1); });
  sim.schedule_in(9, [&] { fired.push_back(2); });
  // First tick: both time-5 events, nothing else.
  EXPECT_EQ(sim.run_tick(), std::nullopt);
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.now(), 5);
  EXPECT_EQ(sim.run_tick(), std::nullopt);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.run_tick(), std::optional<StopReason>(StopReason::Quiescent));
}

TEST(Simulator, EventLimitMidTickLeavesRestQueued) {
  // Three same-time events and a budget of one: the other two stay queued
  // and run, in order, on a fresh run().
  Simulator sim(1);
  std::vector<int> fired;
  for (int i = 0; i < 3; ++i) {
    sim.schedule_in(1, [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(sim.run(1), StopReason::EventLimit);
  EXPECT_EQ(fired, (std::vector<int>{0}));
  EXPECT_EQ(sim.run(), StopReason::Quiescent);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.events_executed(), 3u);
}

namespace {
/// Counts batch calls so tests can see the batched dispatch shape.
struct CountingSink : DeliverSink {
  int batches = 0;
  int messages = 0;
  void deliver_event(ProcId, ProcId, const Message&,
                     std::uint64_t) override {
    ++messages;
  }
  void deliver_batch(const TickItem* items, std::size_t count) override {
    ++batches;
    DeliverSink::deliver_batch(items, count);
  }
};
}  // namespace

TEST(Simulator, SameTickDeliveriesDispatchAsOneBatch) {
  Simulator sim(1);
  CountingSink sink;
  sim.set_deliver_sink(&sink);
  const Message m = Message::value_msg(0, 7);
  for (int i = 0; i < 32; ++i) sim.schedule_deliver(4, 0, 1, m);
  sim.schedule_deliver(9, 0, 1, m);
  EXPECT_EQ(sim.run(), StopReason::Quiescent);
  EXPECT_EQ(sink.messages, 33);
  EXPECT_EQ(sink.batches, 2);  // one burst at t=4, one singleton at t=9
  sim.clear_deliver_sink(&sink);
}

TEST(Simulator, RngIsSeedDeterministic) {
  Simulator a(42), b(42), c(43);
  EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
  // Different seeds almost surely differ.
  EXPECT_NE(a.rng().next_u64(), c.rng().next_u64());
}

TEST(CrashTracker, BasicLifecycle) {
  CrashTracker t(5);
  EXPECT_FALSE(t.is_crashed(2));
  EXPECT_EQ(t.crash_time(2), kSimTimeNever);
  t.crash(2, 100);
  EXPECT_TRUE(t.is_crashed(2));
  EXPECT_EQ(t.crash_time(2), 100);
  EXPECT_EQ(t.crashed_count(), 1u);
}

TEST(CrashTracker, DoubleCrashKeepsFirstTime) {
  CrashTracker t(3);
  t.crash(0, 10);
  t.crash(0, 99);
  EXPECT_EQ(t.crash_time(0), 10);
  EXPECT_EQ(t.crashed_count(), 1u);
}

TEST(CrashTracker, CorrectSetComplementsCrashes) {
  CrashTracker t(4);
  t.crash(1, 5);
  t.crash(3, 6);
  const auto live = t.correct();
  EXPECT_TRUE(live.test(0));
  EXPECT_FALSE(live.test(1));
  EXPECT_TRUE(live.test(2));
  EXPECT_FALSE(live.test(3));
}

TEST(CrashTracker, UnknownProcessThrows) {
  CrashTracker t(2);
  EXPECT_THROW(t.crash(2, 0), ContractViolation);
}

}  // namespace
}  // namespace hyco
