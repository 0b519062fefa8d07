// Calendar-specific tests for the event core (sim/event_queue.h): tiny
// Tuning geometries force the overflow heap, heap→calendar migration and
// window doubling — paths the default 2048-bucket window never hits in
// unit-sized tests. pop_tick() spans are checked against a stable-sort
// reference model, including caps and pushes made during a tick. Pushes are
// monotone (never before the last popped time), as the simulator's are. The
// generic (at, seq) ordering and slab-reuse properties live in
// event_queue_test.cpp.
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

constexpr std::uint64_t kWholeTick = std::numeric_limits<std::uint64_t>::max();

Message tagged(std::uint64_t tag) { return Message::value_msg(0, tag); }

/// Reference model entry: what the queue should eventually emit.
struct Expected {
  SimTime at = 0;
  std::uint64_t order = 0;  ///< push order — the tie-breaker contract
  std::uint64_t tag = 0;    ///< payload identity
};

bool model_less(const Expected& a, const Expected& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.order < b.order;
}

/// Drains `q` one whole tick at a time, checking every span against the
/// model: each span is the complete run of the model's next time.
void drain_and_check(EventQueue& q, std::vector<Expected> pending) {
  std::sort(pending.begin(), pending.end(), model_less);
  std::size_t next = 0;
  while (next < pending.size()) {
    ASSERT_FALSE(q.empty());
    const TickSpan span = q.pop_tick(kWholeTick);
    ASSERT_EQ(span.at, pending[next].at);
    for (std::size_t i = 0; i < span.count; ++i, ++next) {
      ASSERT_LT(next, pending.size());
      EXPECT_EQ(pending[next].at, span.at);
      ASSERT_EQ(span.items[i].kind, TickItem::Kind::Deliver);
      EXPECT_EQ(span.items[i].msg->value, pending[next].tag);
    }
    if (next < pending.size()) {
      EXPECT_GT(pending[next].at, span.at) << "span stopped short";
    }
  }
  EXPECT_TRUE(q.empty());
}

/// The geometries the fuzzers run over: three tiny windows that force the
/// overflow heap, migration and doubling, and the default one.
std::vector<EventQueue::Tuning> fuzz_geometries() {
  return {
      // 2-bucket window, doubles fast.
      {.bucket_bits = 1, .max_bucket_bits = 2, .widen_threshold_mult = 1},
      // 4-bucket window, doubles once, at a higher threshold.
      {.bucket_bits = 2, .max_bucket_bits = 3, .widen_threshold_mult = 2},
      // Cannot double: migration only.
      {.bucket_bits = 1, .max_bucket_bits = 1, .widen_threshold_mult = 1},
      EventQueue::Tuning{},
  };
}

TEST(CalendarQueue, OverflowHeapPreservesGlobalOrder) {
  EventQueue::Tuning t;
  t.bucket_bits = 1;  // window of 2 one-tick days: nearly everything spills
  t.max_bucket_bits = 1;
  EventQueue q(t);
  std::vector<Expected> pending;
  // Interleaved far/near times, with equal-time collisions at both ends.
  const SimTime times[] = {500, 2, 900, 2, 500, 0, 901, 900, 3, 0};
  std::uint64_t tag = 0;
  for (const SimTime at : times) {
    q.push_deliver(at, 0, 1, tagged(tag));
    pending.push_back({at, tag, tag});
    ++tag;
  }
  EXPECT_GT(q.overflow_size(), 0u) << "geometry failed to force the heap";
  drain_and_check(q, std::move(pending));
}

TEST(CalendarQueue, WideningDoublesBucketsUpToTheMaximum) {
  EventQueue::Tuning t;
  t.bucket_bits = 1;
  t.max_bucket_bits = 3;
  t.widen_threshold_mult = 1;
  EventQueue q(t);
  ASSERT_EQ(q.bucket_count(), 2u);
  // Each round pushes a burst far beyond the live window (all overflow,
  // tripping the widen threshold) and drains it, which migrates — and
  // widening only happens at migration. Rounds are model-checked, so the
  // geometry changes are also shown not to disturb ordering.
  SimTime base = 0;
  std::uint64_t tag = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<Expected> pending;
    for (int j = 0; j < 8; ++j) {
      const SimTime at = base + 1000 * (j + 1);
      q.push_deliver(at, 0, 1, tagged(tag));
      pending.push_back({at, tag, tag});
      ++tag;
    }
    base += 9000;
    drain_and_check(q, std::move(pending));
    if (round == 0) EXPECT_EQ(q.bucket_count(), 4u);
  }
  EXPECT_EQ(q.bucket_count(), 8u);  // max_bucket_bits caps the doubling
}

TEST(CalendarQueue, FallingPushesIntoAnEmptyQueueKeepTheWindowAtTheCursor) {
  EventQueue::Tuning t;
  t.bucket_bits = 1;
  t.max_bucket_bits = 1;
  EventQueue q(t);
  std::vector<Expected> pending;
  // Pushes in falling time order before the first pop. The window stays at
  // the cursor (time 0) instead of following the first push, so none of
  // them lands before it: all four overflow and pop in (at, seq) order.
  const SimTime times[] = {1000, 5000, 3, 3};
  std::uint64_t tag = 0;
  for (const SimTime at : times) {
    q.push_deliver(at, 0, 1, tagged(tag));
    pending.push_back({at, tag, tag});
    ++tag;
  }
  EXPECT_EQ(q.overflow_size(), 4u);
  drain_and_check(q, std::move(pending));
}

TEST(CalendarQueue, EmptyQueueSlidesItsWindowToTheCursor) {
  EventQueue::Tuning t;
  t.bucket_bits = 1;  // window of 2 days
  t.max_bucket_bits = 1;
  EventQueue q(t);
  q.push_deliver(100, 0, 1, tagged(0));  // beyond [0, 2): overflow
  EXPECT_EQ(q.pop_tick(kWholeTick).at, 100);  // migrates: window [100, 102)
  q.push_deliver(101, 0, 1, tagged(1));
  EXPECT_EQ(q.overflow_size(), 0u);
  EXPECT_EQ(q.pop_tick(kWholeTick).at, 101);
  // Empty, cursor at 101: day 102 is past the old window but within two
  // days of the cursor, so the window slides instead of spilling.
  q.push_deliver(102, 0, 1, tagged(2));
  q.push_deliver(101, 0, 1, tagged(3));  // the last popped time is open
  EXPECT_EQ(q.overflow_size(), 0u);
  drain_and_check(q, {{101, 3, 3}, {102, 2, 2}});
}

/// One fuzz input: how far past the last popped time pushes reach, the
/// share of operations that push, operations per round, and the largest
/// pop_tick cap drawn (0 = whole ticks).
struct FuzzInput {
  std::uint64_t time_range;
  std::uint64_t push_pct;
  int ops;
  std::uint64_t max_cap;
};

/// What a fuzz run made the queue do, per geometry.
struct FuzzCoverage {
  std::vector<bool> overflowed;
  std::vector<bool> doubled;
};

/// Random monotone pushes and (capped) pop_tick spans against the
/// stable-sort reference, over every fuzz geometry.
FuzzCoverage fuzz(const FuzzInput& in) {
  FuzzCoverage cov;
  for (const EventQueue::Tuning& t : fuzz_geometries()) {
    Rng rng(0xCA1E);
    bool overflowed = false;
    bool doubled = false;
    for (int round = 0; round < 20; ++round) {
      EventQueue q(t);
      std::vector<Expected> pending;
      SimTime now = 0;  // the last popped time
      std::uint64_t tag = 0;
      for (int op = 0; op < in.ops; ++op) {
        const bool do_push =
            pending.empty() || rng.bounded(100) < in.push_pct;
        if (do_push) {
          const SimTime at =
              now + static_cast<SimTime>(rng.bounded(in.time_range));
          q.push_deliver(at, 0, 1, tagged(tag));
          pending.push_back({at, tag, tag});
          ++tag;
          overflowed = overflowed || q.overflow_size() > 0;
          continue;
        }
        // Model: the (at, seq)-sorted prefix sharing the minimum time.
        std::sort(pending.begin(), pending.end(), model_less);
        std::size_t run = 1;
        while (run < pending.size() && pending[run].at == pending[0].at) {
          ++run;
        }
        const std::uint64_t cap =
            in.max_cap == 0 ? kWholeTick : 1 + rng.bounded(in.max_cap);
        const std::size_t want =
            cap < run ? static_cast<std::size_t>(cap) : run;
        const TickSpan span = q.pop_tick(cap);
        EXPECT_EQ(span.at, pending[0].at);
        EXPECT_EQ(span.count, want);
        if (span.at != pending[0].at || span.count != want) return cov;
        for (std::size_t i = 0; i < span.count; ++i) {
          EXPECT_EQ(span.items[i].msg->value, pending[i].tag);
        }
        now = span.at;
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(want));
      }
      doubled = doubled || q.bucket_count() > (std::size_t{1} << t.bucket_bits);
      drain_and_check(q, std::move(pending));
    }
    cov.overflowed.push_back(overflowed);
    cov.doubled.push_back(doubled);
  }
  return cov;
}

TEST(CalendarQueueProperty, FuzzMatchesModelAcrossGeometries) {
  // The wide range (relative to the tiny windows) keeps events flowing
  // calendar → heap → migrated calendar, across repeated doublings, while
  // every whole-tick span must still match the stable-sort reference. Even
  // the default window overflows: it stays put while the queue holds
  // events, and the cursor drifts towards its end. The dense range piles
  // dozens of entries on each day, so a day spans several blocks and spans
  // cross block edges; the far range jumps past whole windows.
  const FuzzCoverage wide = fuzz(FuzzInput{300, 60, 500, 0});
  EXPECT_EQ(wide.overflowed, (std::vector<bool>{true, true, true, true}));
  EXPECT_EQ(wide.doubled, (std::vector<bool>{true, true, false, false}));
  fuzz(FuzzInput{8, 75, 1000, 0});
  fuzz(FuzzInput{5000, 60, 500, 0});
}

// --- pop_tick span contract -------------------------------------------------

TEST(CalendarQueueTick, SpanIsTheMinTimeRunInSeqOrder) {
  EventQueue q;
  q.push_deliver(7, 2, 3, tagged(10));
  q.push_deliver(9, 0, 1, tagged(99));  // later tick
  q.push_deliver(7, 4, 5, tagged(11));
  q.push_deliver(7, 6, 7, tagged(12));
  const TickSpan span = q.pop_tick(100);
  EXPECT_EQ(span.at, 7);
  ASSERT_EQ(span.count, 3u);
  for (std::size_t i = 0; i < span.count; ++i) {
    EXPECT_EQ(span.items[i].kind, TickItem::Kind::Deliver);
    EXPECT_EQ(span.items[i].msg->value, 10u + i);
  }
  EXPECT_EQ(span.items[0].from, 2);
  EXPECT_EQ(span.items[0].to, 3);
  EXPECT_EQ(q.size(), 1u);  // the span left the queue
  const TickSpan next = q.pop_tick(100);
  EXPECT_EQ(next.at, 9);
  ASSERT_EQ(next.count, 1u);
  EXPECT_EQ(next.items[0].msg->value, 99u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTick, CapTruncatesAndRemainderStaysQueued) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 5; ++i) q.push_deliver(4, 0, 1, tagged(i));
  const TickSpan first = q.pop_tick(2);
  ASSERT_EQ(first.count, 2u);
  EXPECT_EQ(first.items[0].msg->value, 0u);
  EXPECT_EQ(first.items[1].msg->value, 1u);
  EXPECT_EQ(q.size(), 3u);
  const TickSpan rest = q.pop_tick(100);
  EXPECT_EQ(rest.at, 4);
  ASSERT_EQ(rest.count, 3u);
  EXPECT_EQ(rest.items[0].msg->value, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTick, PushesDuringTheTickDoNotInvalidateTheSpan) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 8; ++i) q.push_deliver(3, 0, 1, tagged(i));
  const TickSpan span = q.pop_tick(100);
  ASSERT_EQ(span.count, 8u);
  // Handler-style pushes into the SAME tick time: they append to the very
  // day the span was read from (many blocks' worth) and must not disturb
  // the copied-out span or its payloads.
  for (std::uint64_t i = 0; i < 4096; ++i) {
    q.push_deliver(3, 0, 1, tagged(100 + i));
  }
  for (std::size_t i = 0; i < span.count; ++i) {
    EXPECT_EQ(span.items[i].msg->value, i);
  }
  // The pushes surface on the next tick, in push order.
  const TickSpan next = q.pop_tick(100000);
  EXPECT_EQ(next.at, 3);
  ASSERT_EQ(next.count, 4096u);
  EXPECT_EQ(next.items[0].msg->value, 100u);
  EXPECT_EQ(next.items[4095].msg->value, 100u + 4095u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTick, MixedKindsKeepSeqOrderInsideTheSpan) {
  EventQueue q;
  int fired = 0;
  q.push_deliver(5, 0, 1, tagged(0));
  q.push(5, [&] { ++fired; });
  q.push_deliver(5, 0, 1, tagged(2));
  const TickSpan span = q.pop_tick(100);
  ASSERT_EQ(span.count, 3u);
  EXPECT_EQ(span.items[0].kind, TickItem::Kind::Deliver);
  EXPECT_EQ(span.items[1].kind, TickItem::Kind::Callback);
  EXPECT_EQ(span.items[2].kind, TickItem::Kind::Deliver);
  q.take_callback(span.items[1].slot)();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTickProperty, FuzzCappedSpansMatchModel) {
  // Random caps cut ticks short; the rest of a tick must come out, in seq
  // order, on the following pops, interleaved with monotone pushes — every
  // span element and every leftover is checked against the model. The
  // dense input keeps days several blocks deep, so spans and caps cross
  // block edges.
  const FuzzCoverage wide = fuzz(FuzzInput{200, 50, 200, 8});
  EXPECT_EQ(wide.overflowed, (std::vector<bool>{true, true, true, true}));
  fuzz(FuzzInput{8, 85, 600, 80});
  fuzz(FuzzInput{5000, 60, 400, 4});
}

}  // namespace
}  // namespace hyco
