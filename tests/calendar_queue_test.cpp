// Calendar-specific tests for the event core (sim/event_queue.h): tiny
// windows force the overflow heap and heap→calendar migration — paths the
// default 2048-bucket window never hits in unit-sized tests. pop_tick() spans are checked against a stable-sort
// reference model, including caps, pushes made during a tick and staged
// payloads shared by the several entries of one fan-out push. Pushes are monotone (never before the
// last popped time), as the simulator's are. The generic (at, seq) ordering
// and slab-reuse properties live in event_queue_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/message.h"
#include "sim/event_queue.h"
#include "util/assert.h"
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
  ProcId from = 0;
  ProcId to = 1;
};

bool model_less(const Expected& a, const Expected& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.order < b.order;
}

/// Drains `q` one whole tick at a time, checking every span against the
/// model: each span is the complete run of the model's next time, and each
/// event's seq is its push order. A drained queue holds no payload.
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
      EXPECT_EQ(span.items[i].seq, pending[next].order);
      ASSERT_EQ(span.items[i].kind, TickItem::Kind::Deliver);
      EXPECT_EQ(span.items[i].msg->value, pending[next].tag);
      EXPECT_EQ(span.items[i].from, pending[next].from);
      EXPECT_EQ(span.items[i].to, pending[next].to);
    }
    if (next < pending.size()) {
      EXPECT_GT(pending[next].at, span.at) << "span stopped short";
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.deliver_pool_in_use(), 0u);
}

/// The window sizes (bucket_bits) the fuzzers run over: three tiny windows
/// of 2, 4 and 8 days that force the overflow heap and migration, and the
/// default one.
constexpr unsigned kFuzzBucketBits[] = {1, 2, 3, 11};

TEST(CalendarQueue, OverflowHeapPreservesGlobalOrder) {
  EventQueue q(1);  // window of 2 one-tick days: nearly everything spills
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

TEST(CalendarQueue, FallingPushesIntoAnEmptyQueueKeepTheWindowAtTheCursor) {
  EventQueue q(1);
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
  EventQueue q(1);  // window of 2 days
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
/// share of operations that push, operations per round, the largest
/// pop_tick cap drawn (0 = whole ticks), and the bound on a fan-out's
/// copies (each push files 0 … fan_out_bound - 1 of them).
struct FuzzInput {
  std::uint64_t time_range;
  std::uint64_t push_pct;
  int ops;
  std::uint64_t max_cap;
  std::uint64_t fan_out_bound = 4;
};

/// What a fuzz run made the queue do, per window size.
struct FuzzCoverage {
  std::vector<bool> overflowed;
  /// A payload was staged after a capped pop left part of its day queued.
  std::vector<bool> staged_mid_tick;
};

/// Random monotone pushes and (capped) pop_tick spans against the
/// stable-sort reference, over every fuzz window size. Each push stages one
/// payload from a random sender and files a fan-out of it in one
/// push_fanout() at the last popped time: each copy has its own delay, from
/// 0 (the day a capped pop left open) to far past the window, and its own
/// receiver. Seqs, (from, to, message) and pop order are checked against
/// the model, and the payload count in use after every operation.
FuzzCoverage fuzz(const FuzzInput& in) {
  FuzzCoverage cov;
  for (const unsigned bucket_bits : kFuzzBucketBits) {
    Rng rng(0xCA1E);
    bool overflowed = false;
    bool staged_mid_tick = false;
    for (int round = 0; round < 20; ++round) {
      EventQueue q(bucket_bits);
      std::vector<Expected> pending;
      std::vector<FanoutCopy> copies;
      std::vector<std::uint64_t> entries_left;  ///< per payload tag
      std::size_t live_payloads = 0;
      SimTime now = 0;  // the last popped time
      std::uint64_t order = 0;
      bool tick_split = false;  // the last pop left part of its day queued
      for (int op = 0; op < in.ops; ++op) {
        const bool do_push =
            pending.empty() || rng.bounded(100) < in.push_pct;
        if (do_push) {
          const std::uint64_t tag = entries_left.size();
          const auto from = static_cast<ProcId>(rng.bounded(8));
          const std::uint32_t payload = q.stage(from, tagged(tag));
          const std::uint64_t fan_out = rng.bounded(in.fan_out_bound);
          copies.clear();
          for (std::uint64_t e = 0; e < fan_out; ++e) {
            const auto delay = static_cast<SimTime>(rng.bounded(in.time_range));
            const auto to = static_cast<ProcId>(rng.bounded(8));
            copies.push_back({delay, to});
            pending.push_back({now + delay, order + e, tag, from, to});
          }
          EXPECT_EQ(q.push_fanout(now, payload, copies), order);
          order += fan_out;
          q.unpin(payload);
          entries_left.push_back(fan_out);
          if (fan_out > 0) ++live_payloads;
          EXPECT_EQ(q.deliver_pool_in_use(), live_payloads);
          staged_mid_tick = staged_mid_tick || tick_split;
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
          EXPECT_EQ(span.items[i].seq, pending[i].order);
          EXPECT_EQ(span.items[i].msg->value, pending[i].tag);
          EXPECT_EQ(span.items[i].from, pending[i].from);
          EXPECT_EQ(span.items[i].to, pending[i].to);
          if (--entries_left[pending[i].tag] == 0) --live_payloads;
        }
        EXPECT_EQ(q.deliver_pool_in_use(), live_payloads);
        tick_split = want < run;
        now = span.at;
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(want));
      }
      drain_and_check(q, std::move(pending));
    }
    cov.overflowed.push_back(overflowed);
    cov.staged_mid_tick.push_back(staged_mid_tick);
  }
  return cov;
}

TEST(CalendarQueueProperty, FuzzMatchesModelAcrossGeometries) {
  // The wide range (relative to the tiny windows) keeps events flowing
  // calendar → heap → migrated calendar, while every whole-tick span must
  // still match the stable-sort reference. Even
  // the default window overflows: it stays put while the queue holds
  // events, and the cursor drifts towards its end (800 operations, since
  // fan-outs keep more entries pending, which slows the drift). The dense
  // range piles dozens of entries on each day, so a day spans several
  // blocks and spans cross block edges; the far range jumps past whole
  // windows.
  const FuzzCoverage wide = fuzz(FuzzInput{300, 60, 800, 0});
  EXPECT_EQ(wide.overflowed, (std::vector<bool>{true, true, true, true}));
  fuzz(FuzzInput{8, 75, 1000, 0});
  fuzz(FuzzInput{5000, 60, 500, 0});
}

TEST(CalendarQueueProperty, FuzzWideFanOutsMatchModel) {
  // Fan-outs of up to 24 copies, each filed in one push: copies of one
  // push land on the day the last pop left open, on later days of the
  // window, and past it in the overflow heap.
  // The default window holds the 300-day range; the far input's copies
  // pass it too. The capped input splits days, so a fan-out's delay-0
  // copies join a day whose earlier entries are half popped.
  const FuzzCoverage wide = fuzz(FuzzInput{300, 50, 300, 0, 25});
  EXPECT_EQ(wide.overflowed, (std::vector<bool>{true, true, true, false}));
  const FuzzCoverage capped = fuzz(FuzzInput{8, 60, 300, 40, 25});
  EXPECT_EQ(capped.staged_mid_tick,
            (std::vector<bool>{true, true, true, true}));
  const FuzzCoverage far = fuzz(FuzzInput{5000, 40, 200, 4, 25});
  EXPECT_EQ(far.overflowed, (std::vector<bool>{true, true, true, true}));
}

TEST(CalendarQueue, RejectedFanOutFilesNothing) {
  // One negative delay rejects the whole fan-out before any copy is filed
  // or counted on the payload; so does a push time before the last popped
  // time. The queue and its payloads are as they were.
  EventQueue q;
  q.push_deliver(5, 0, 1, tagged(0));
  ASSERT_EQ(q.pop_tick(kWholeTick).count, 1u);  // the cursor is at 5
  q.push_deliver(9, 0, 1, tagged(1));
  const std::uint32_t payload = q.stage(2, tagged(2));
  const std::vector<FanoutCopy> bad_delay = {{3, 0}, {0, 1}, {-1, 2}, {7, 3}};
  const std::vector<FanoutCopy> good = {{3, 0}, {0, 1}};
  const std::size_t size = q.size();
  const std::size_t in_use = q.deliver_pool_in_use();
  EXPECT_THROW(q.push_fanout(5, payload, bad_delay), ContractViolation);
  EXPECT_EQ(q.size(), size);
  EXPECT_EQ(q.deliver_pool_in_use(), in_use);
  EXPECT_THROW(q.push_fanout(4, payload, good), ContractViolation);
  EXPECT_EQ(q.size(), size);
  EXPECT_EQ(q.deliver_pool_in_use(), in_use);
  // The rejected fan-outs took no seq: the good one's copies get 2 and 3.
  EXPECT_EQ(q.push_fanout(5, payload, good), 2u);
  q.unpin(payload);
  drain_and_check(q, {{8, 2, 2, 2, 0}, {5, 3, 2, 2, 1}, {9, 1, 1}});
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
  // block edges, and stages payloads between the pops of a split day, some
  // of whose entries join that same day.
  const FuzzCoverage wide = fuzz(FuzzInput{200, 50, 200, 8});
  EXPECT_EQ(wide.overflowed, (std::vector<bool>{true, true, true, true}));
  const FuzzCoverage dense = fuzz(FuzzInput{8, 85, 600, 80});
  EXPECT_EQ(dense.staged_mid_tick,
            (std::vector<bool>{true, true, true, true}));
  fuzz(FuzzInput{5000, 60, 400, 4});
}

}  // namespace
}  // namespace hyco
