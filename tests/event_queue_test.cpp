// Property/fuzz tests for the zero-allocation event core: the calendar
// queue (and its overflow heap) is checked against a stable-sort reference
// model under random interleavings of monotone pushes and pops (including
// heavy equal-time contention), and both free-list slabs are checked for
// steady-state reuse (no growth under churn). The calendar-specific
// geometries (tiny windows, forced migration/widening, pop_tick spans)
// live in calendar_queue_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/message.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace hyco {
namespace {

Message tagged(std::uint64_t tag) {
  Message m = Message::value_msg(0, tag);
  return m;
}

/// Reference model entry: what the queue should eventually emit.
struct Expected {
  SimTime at = 0;
  std::uint64_t order = 0;  ///< push order — the tie-breaker contract
  std::uint64_t tag = 0;    ///< payload identity
};

/// Pops one event (a tick span capped at one).
TickItem pop_one(EventQueue& q, SimTime* at = nullptr) {
  const TickSpan span = q.pop_tick(1);
  EXPECT_EQ(span.count, 1u);
  if (at != nullptr) *at = span.at;
  return span.items[0];
}

/// Drains `q` one whole tick at a time, checking each popped event against
/// the reference sorted by (at, push order) — i.e. std::stable_sort over
/// the pending set by time.
void drain_and_check(EventQueue& q, std::vector<Expected> pending) {
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Expected& a, const Expected& b) {
                     return a.at < b.at;  // stable ⇒ push order at equal times
                   });
  std::size_t next = 0;
  while (!q.empty()) {
    const TickSpan span = q.pop_tick(std::numeric_limits<std::uint64_t>::max());
    for (std::size_t i = 0; i < span.count; ++i, ++next) {
      ASSERT_LT(next, pending.size());
      EXPECT_EQ(span.at, pending[next].at);
      ASSERT_EQ(span.items[i].kind, TickItem::Kind::Deliver);
      EXPECT_EQ(span.items[i].msg->value, pending[next].tag);
    }
  }
  EXPECT_EQ(next, pending.size());
}

TEST(EventQueueProperty, RandomInterleavingMatchesStableSortModel) {
  Rng rng(0xE7E7);
  for (int round = 0; round < 50; ++round) {
    EventQueue q;
    std::vector<Expected> pending;
    std::uint64_t next_tag = 0;
    SimTime now = 0;  // the last popped time
    // Random interleaving of pushes and pops; pops must always agree with
    // the reference model's front.
    const int ops = 400;
    for (int op = 0; op < ops; ++op) {
      const bool do_push = pending.empty() || rng.bounded(100) < 60;
      if (do_push) {
        // Deliberately small time range: lots of equal-time collisions.
        const SimTime at = now + static_cast<SimTime>(rng.bounded(20));
        q.push_deliver(at, 0, 1, tagged(next_tag));
        pending.push_back({at, next_tag, next_tag});
        ++next_tag;
      } else {
        auto front = std::min_element(
            pending.begin(), pending.end(),
            [](const Expected& a, const Expected& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.order < b.order;
            });
        const TickItem it = pop_one(q, &now);
        EXPECT_EQ(now, front->at);
        EXPECT_EQ(it.msg->value, front->tag);
        pending.erase(front);
      }
    }
    drain_and_check(q, std::move(pending));
  }
}

TEST(EventQueueProperty, EqualTimeBurstPopsInPushOrder) {
  EventQueue q;
  std::vector<Expected> pending;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    q.push_deliver(7, 0, 1, tagged(i));
    pending.push_back({7, i, i});
  }
  drain_and_check(q, std::move(pending));
}

TEST(EventQueueProperty, MixedCallbackAndDeliverOrdering) {
  EventQueue q;
  std::vector<int> order;
  q.push_deliver(5, 0, 1, tagged(2));
  q.push(5, [&] { order.push_back(1); });  // same time, pushed second
  q.push(3, [&] { order.push_back(0); });
  while (!q.empty()) {
    const TickSpan span = q.pop_tick(100);
    for (std::size_t i = 0; i < span.count; ++i) {
      const TickItem& it = span.items[i];
      if (it.kind == TickItem::Kind::Callback) {
        q.take_callback(it.slot)();
      } else {
        order.push_back(static_cast<int>(it.msg->value));
      }
    }
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(EventQueuePool, CallbackSlotsAreReusedUnderChurn) {
  EventQueue q;
  // Warm up: establish the steady-state slot population.
  for (int i = 0; i < 8; ++i) q.push(i, [] {});
  const std::size_t warm = q.pool_capacity();
  // Steady-state churn: one in flight at a time, thousands of iterations.
  for (int i = 0; i < 5000; ++i) {
    SimTime at = 0;
    const TickItem it = pop_one(q, &at);
    ASSERT_EQ(it.kind, TickItem::Kind::Callback);
    q.take_callback(it.slot)();
    q.push(at + 8, [] {});
  }
  EXPECT_EQ(q.pool_capacity(), warm) << "closure pool grew under churn";
  EXPECT_EQ(q.pool_in_use(), 8u);
  while (!q.empty()) q.take_callback(pop_one(q).slot);
  EXPECT_EQ(q.pool_in_use(), 0u);
}

TEST(EventQueuePool, DeliverSlotsAreReusedUnderChurn) {
  EventQueue q;
  const Message m = tagged(1);
  for (int i = 0; i < 16; ++i) q.push_deliver(i, 0, 1, m);
  const std::size_t warm = q.deliver_pool_capacity();
  for (int i = 0; i < 5000; ++i) {
    SimTime at = 0;
    pop_one(q, &at);
    q.push_deliver(at + 16, 0, 1, m);
  }
  // A popped slot recycles at the NEXT pop (the deferred free keeps the
  // popped Message reference valid across pushes), so steady-state churn
  // holds exactly one slot beyond the warm population — and no more.
  EXPECT_LE(q.deliver_pool_capacity(), warm + 1)
      << "deliver slab grew under churn";
  EXPECT_EQ(q.deliver_pool_in_use(), 16u);
  while (!q.empty()) pop_one(q);
  EXPECT_EQ(q.deliver_pool_in_use(), 0u);
}

TEST(EventQueuePool, PoppedMessageReferenceSurvivesPushes) {
  // Satellite regression for the slab-reference pop: the Message a popped
  // Deliver event points at must stay intact across arbitrary pushes
  // (which recycle slots and grow the slab) until the next pop.
  EventQueue q;
  q.push_deliver(1, 0, 1, tagged(0xFEED));
  const TickItem it = pop_one(q);
  ASSERT_EQ(it.kind, TickItem::Kind::Deliver);
  const Message* held = it.msg;
  EXPECT_EQ(held->value, 0xFEEDu);
  // Slot-reuse pressure: these pushes must NOT claim the just-popped slot.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    q.push_deliver(2, 0, 1, tagged(i));
  }
  EXPECT_EQ(held->value, 0xFEEDu)
      << "popped slab reference clobbered by a push";
  // The next pop may recycle the held slot; its own reference is distinct.
  EXPECT_EQ(pop_one(q).msg->value, 0u);
}

TEST(EventQueuePool, TakeCallbackTwiceThrows) {
  EventQueue q;
  q.push(1, [] {});
  const TickItem it = pop_one(q);
  q.take_callback(it.slot)();
  EXPECT_THROW(static_cast<void>(q.take_callback(it.slot)), ContractViolation);
}

TEST(EventQueueProperty, ReserveDoesNotDisturbContents) {
  EventQueue q;
  std::vector<Expected> pending;
  for (std::uint64_t i = 0; i < 10; ++i) {
    q.push_deliver(static_cast<SimTime>(10 - i), 0, 1, tagged(i));
    pending.push_back({static_cast<SimTime>(10 - i), i, i});
  }
  q.reserve(4096, 64);
  for (std::uint64_t i = 10; i < 20; ++i) {
    q.push_deliver(5, 0, 1, tagged(i));
    pending.push_back({5, i, i});
  }
  drain_and_check(q, std::move(pending));
}

TEST(EventQueueProperty, PeakSizeTracksHighWaterMark) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.push_deliver(i, 0, 1, tagged(0));
  for (int i = 0; i < 50; ++i) pop_one(q);
  for (int i = 0; i < 10; ++i) q.push_deliver(200 + i, 0, 1, tagged(0));
  EXPECT_EQ(q.peak_size(), 100u);
  EXPECT_EQ(q.size(), 60u);
}

}  // namespace
}  // namespace hyco
