// Heap-allocation guards for the run hot path. This binary replaces the
// global operator new and operator delete with counting versions, so a test
// can assert that a steady-state loop allocates nothing: the event queue's
// push_deliver → pop_tick cycle once its blocks, slab slots and tick buffer
// are warm, the simulator's tick loop over broadcast bursts, a warm n = 128
// all-to-all wave, msg_exchange's crediting, quorum test and rec set, the
// cluster memory's proposals, and a process's catch-up replies, duplicate
// PHASE messages and backlog replays. Per-round records (the cluster
// memory's cells, a process's exchange slots, the invariant checker's
// records) may allocate only when the rounds they hold double.
// The counters also sum the bytes requested, which bounds what one cold
// all-to-all wave costs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>

#include "baseline/ben_or.h"
#include "core/cluster_layout.h"
#include "core/invariant_checker.h"
#include "core/local_coin_process.h"
#include "core/msg_exchange.h"
#include "net/delay_model.h"
#include "net/message.h"
#include "net/network.h"
#include "shm/cluster_memory.h"
#include "sim/crash.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t bytes_allocated() {
  return g_bytes.load(std::memory_order_relaxed);
}

void* counted(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n == 0 ? 1 : n) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

// Every form is replaced, so each allocation and its release pair up as
// malloc/free (sanitizer builds check that pairing).
void* operator new(std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hyco {
namespace {

/// INetwork that drops every message: begin() broadcasts into it without
/// allocating.
class NullNetwork final : public INetwork {
 public:
  explicit NullNetwork(ProcId n) : n_(n) {}
  void send(ProcId, ProcId, const Message&) override {}
  void broadcast(ProcId, const Message&) override {}
  [[nodiscard]] ProcId n() const override { return n_; }
  [[nodiscard]] bool crashed(ProcId /*p*/) const override { return false; }

 private:
  ProcId n_;
};

/// INetwork that counts what a process sends without allocating.
class CountingNetwork final : public INetwork {
 public:
  void send(ProcId, ProcId, const Message& m) override {
    if (m.kind == MsgKind::Phase) ++phase_replies;
  }
  void broadcast(ProcId, const Message&) override { ++broadcasts; }
  [[nodiscard]] ProcId n() const override { return 16; }
  [[nodiscard]] bool crashed(ProcId /*p*/) const override { return false; }

  std::uint64_t phase_replies = 0;
  std::uint64_t broadcasts = 0;
};

/// PHASE(r, ph, ·) to `proc` from p4, p8 and p12 of even(16, 4), carrying
/// `a`, `b`, `c`: one member of each cluster but p0's, a quorum.
void quorum(IConsensusProcess& proc, Round r, Phase ph, Estimate a,
            Estimate b, Estimate c) {
  proc.on_message(4, Message::phase_msg(r, ph, a));
  proc.on_message(8, Message::phase_msg(r, ph, b));
  proc.on_message(12, Message::phase_msg(r, ph, c));
}

/// Runs round r of p0 (Algorithm 2 at even(16, 4), in (r, ph1)) with
/// early arrivals: PHASE(r, ph2) from p5 and p9 and PHASE(r + 1, ph1) from
/// p6 come first and wait in the backlog. A split phase 1 makes est2 = ⊥,
/// its start replays p5's and p9's ⊥, p12's 1 completes phase 2 with
/// rec = {1, ⊥}, and round r + 1 starts by replaying p6's message.
void round_with_early_arrivals(IConsensusProcess& proc, Round r) {
  proc.on_message(5, Message::phase_msg(r, Phase::Two, Estimate::Bot));
  proc.on_message(9, Message::phase_msg(r, Phase::Two, Estimate::Bot));
  proc.on_message(6, Message::phase_msg(r + 1, Phase::One, Estimate::One));
  quorum(proc, r, Phase::One, Estimate::One, Estimate::Zero, Estimate::One);
  proc.on_message(12, Message::phase_msg(r, Phase::Two, Estimate::One));
}

TEST(AllocFree, CatchUpRepliesDuplicatesAndBacklogReplaysAllocateNothing) {
  // An Algorithm 2 process at n = 16, m = 4 under scenario assist runs
  // rounds 1-3 with early arrivals, which grows its exchange slots and its
  // backlog. Then every peer asks for every slot of rounds 1-3 twice (one
  // catch-up reply per peer and slot, then duplicates), every peer
  // rejoins and asks again (each reply is allowed once more), a PHASE
  // for round 2^31 - 1 arrives (no reply, no slot), and rounds 4 and 5
  // replay their early arrivals. None of that allocates.
  const auto layout = ClusterLayout::even(16, 4);
  CountingNetwork net;
  ClusterMemory memory(0, 16);
  LocalCoinProcess proc(0, layout, net, memory, 1, nullptr, 100);
  proc.set_scenario_assist(true);
  proc.start(Estimate::One);
  for (Round r = 1; r <= 3; ++r) round_with_early_arrivals(proc, r);
  ASSERT_EQ(proc.current_round(), 4);

  const auto ask_all = [&] {
    const std::uint64_t before = net.phase_replies;
    for (ProcId q = 1; q < 16; ++q) {
      for (Round r = 1; r <= 3; ++r) {
        for (const Phase ph : {Phase::One, Phase::Two}) {
          proc.on_message(q, Message::phase_msg(r, ph, Estimate::One));
        }
      }
    }
    return net.phase_replies - before;
  };
  const std::uint64_t start = allocations();
  const std::uint64_t first = ask_all();
  const std::uint64_t duplicates = ask_all();
  for (ProcId q = 1; q < 16; ++q) proc.on_peer_recover(q);
  const std::uint64_t rejoined = ask_all();
  const std::uint64_t replies = net.phase_replies;
  proc.on_message(7, Message::phase_msg(std::numeric_limits<Round>::max(),
                                        Phase::One, Estimate::One));
  const std::uint64_t far_ahead = net.phase_replies - replies;
  round_with_early_arrivals(proc, 4);
  round_with_early_arrivals(proc, 5);
  const std::uint64_t allocated = allocations() - start;

  // Rounds 1-3 already answered p4, p8 and p12 in phase 1 and p12 in
  // phase 2.
  EXPECT_EQ(first, 15u * 3 * 2 - 3 * 4);
  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(rejoined, 15u * 3 * 2);
  EXPECT_EQ(far_ahead, 0u);
  EXPECT_EQ(proc.current_round(), 6);
  // Per round: three quorum credits, two replayed, p12's, and p6's replayed.
  EXPECT_EQ(proc.stats().phase_msgs_handled, 5u * 7);
  EXPECT_EQ(allocated, 0u);
}

TEST(AllocFree, RoundRecordsAllocateOncePerDoubling) {
  // An Algorithm 2 process under scenario assist reports rounds 1..1000 to
  // an invariant checker. Its exchange slots (two vectors) and the
  // checker's records (two vectors) may each allocate for their first
  // growth, which holds 8 rounds, and once each time the rounds they hold
  // double. The cluster memory is grown beforehand: its cells are its own
  // test's. No round allocates on its own account.
  constexpr Round kRounds = 1000;
  int doublings = 0;
  for (Round held = 8; held < kRounds; held *= 2) ++doublings;
  const auto layout = ClusterLayout::even(16, 4);
  CountingNetwork net;
  ClusterMemory memory(0, 16);
  for (Round r = 1; r <= kRounds; ++r) {
    memory.cons(r, Phase::One).propose(1, Estimate::One);
    memory.cons(r, Phase::Two).propose(1, Estimate::Bot);
  }
  InvariantChecker checker(layout);
  LocalCoinProcess proc(0, layout, net, memory, 1, &checker, kRounds);
  proc.set_scenario_assist(true);
  const std::uint64_t before = allocations();
  proc.start(Estimate::One);
  for (Round r = 1; r <= kRounds; ++r) {
    quorum(proc, r, Phase::One, Estimate::One, Estimate::Zero, Estimate::One);
    quorum(proc, r, Phase::Two, Estimate::One, Estimate::Bot, Estimate::Bot);
  }
  const std::uint64_t allocated = allocations() - before;
  EXPECT_TRUE(proc.parked());
  EXPECT_EQ(proc.current_round(), kRounds);
  EXPECT_EQ(net.broadcasts, 2u * kRounds);
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(doublings, 7);
  EXPECT_LE(allocated, 4u * static_cast<std::uint64_t>(1 + doublings));
}

TEST(AllocFree, BenOrTalliesAllocateOncePerDoubling) {
  // A Ben-Or process at n = 16 runs rounds 1..1000: nine senders close
  // each phase (majority 9 > 8), and phase 2's {1, ⊥} moves it on with
  // est1 = 1, no coin. Each round also brings round r + 1's phase 1 early,
  // so received rounds size the storage ahead of the process's own. Its
  // two tally vectors may each allocate for their first growth, which
  // holds 8 rounds, and once each per doubling, capped at max_rounds'
  // slots. No round allocates on its own account.
  constexpr Round kRounds = 1000;
  int growths = 1;
  for (Round held = 8; held < kRounds; held *= 2) ++growths;
  CountingNetwork net;
  BenOrProcess proc(0, 16, net, 1, kRounds);
  const std::uint64_t before = allocations();
  proc.start(Estimate::One);
  for (Round r = 1; r <= kRounds; ++r) {
    if (r < kRounds) {
      proc.on_message(15, Message::phase_msg(r + 1, Phase::One, Estimate::One));
    }
    for (ProcId q = 1; q <= 9; ++q) {
      proc.on_message(q, Message::phase_msg(r, Phase::One, Estimate::One));
    }
    for (ProcId q = 1; q <= 9; ++q) {
      proc.on_message(q, Message::phase_msg(r, Phase::Two,
                                            q == 1 ? Estimate::One
                                                   : Estimate::Bot));
    }
  }
  const std::uint64_t allocated = allocations() - before;
  EXPECT_TRUE(proc.parked());
  EXPECT_FALSE(proc.decided());
  EXPECT_EQ(proc.current_round(), kRounds);
  EXPECT_EQ(proc.stats().coin_flips, 0u);
  EXPECT_EQ(net.broadcasts, 2u * kRounds);
  EXPECT_EQ(growths, 8);
  EXPECT_LE(allocated, 2u * static_cast<std::uint64_t>(growths));
}

TEST(AllocFree, EventQueueDaysRecycleBlocksWithoutAllocating) {
  // Each day pushes a 40-delivery burst 100 days ahead and consumes the
  // earliest day as one tick, so about 100 days are in flight, as in a
  // run's broadcast waves. Once the first days have warmed the block free
  // list, the deliver slab and the tick buffer, no day allocates.
  constexpr SimTime kLead = 100;
  constexpr SimTime kDays = 1200;
  EventQueue q;
  const Message m = Message::phase_msg(1, Phase::One, Estimate::One);
  std::uint64_t warm = 0;
  SimTime full_ticks = 0;
  for (SimTime day = 0; day < kDays; ++day) {
    if (day == 200) warm = allocations();
    for (ProcId i = 0; i < 40; ++i) {
      q.push_deliver(day + kLead, i % 8, i / 8, m);
    }
    if (day < kLead) continue;
    const TickSpan span = q.pop_tick(1000);
    if (span.at == day && span.count == 40) ++full_ticks;
  }
  const std::uint64_t allocated = allocations() - warm;
  EXPECT_EQ(full_ticks, kDays - kLead);
  EXPECT_EQ(allocated, 0u);
}

TEST(AllocFree, SimulatorTickLoopAllocatesNothing) {
  // Each cycle every process broadcasts from outside any event, so a burst
  // of n² deliveries lands in an empty queue, and run() drains it tick by
  // tick. Once the first cycles have warmed the queue, no cycle allocates.
  constexpr ProcId kN = 16;
  constexpr int kWarmCycles = 200;
  constexpr int kCycles = 1000;
  Simulator sim(7);
  sim.reserve_all_to_all(kN);
  const std::unique_ptr<DelayModel> delays =
      make_delay_model(DelayConfig::uniform(50, 150));
  CrashTracker crashes(static_cast<std::size_t>(kN));
  SimNetwork net(sim, *delays, crashes, kN);
  std::uint64_t delivered = 0;
  net.set_deliver([&delivered](ProcId, ProcId, const Message&) {
    ++delivered;
  });
  const Message m = Message::phase_msg(1, Phase::One, Estimate::One);
  std::uint64_t warm = 0;
  int drained = 0;
  for (int cycle = 0; cycle < kWarmCycles + kCycles; ++cycle) {
    if (cycle == kWarmCycles) warm = allocations();
    for (ProcId p = 0; p < kN; ++p) net.broadcast(p, m);
    if (sim.run() == StopReason::Quiescent) ++drained;
  }
  const std::uint64_t allocated = allocations() - warm;
  EXPECT_EQ(drained, kWarmCycles + kCycles);
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kWarmCycles + kCycles) *
                           kN * kN);
  EXPECT_EQ(allocated, 0u);
}

TEST(AllocFree, OneColdAllToAllWaveAllocatesUnderHalfAMegabyte) {
  // Every process of a fresh, reserved n = 128 simulator broadcasts once
  // and run() drains the wave: 16,384 deliveries, all pending at once, over
  // the ~101 days of a uniform 50-150 delay, ~6 day blocks each. Where each
  // pending delivery held a 40-byte copy of its message and a 24-byte
  // calendar entry, the copies took 4 chunks of 4,096 slots (640 KB) and
  // the entries 9 chunks of 64 776-byte blocks (437 KB): 1,094 KB with the
  // tick buffers. With one staged payload per broadcast and 16-byte
  // entries, the payloads fit one 10 KB chunk and the entries 9 chunks of
  // 520-byte blocks (293 KB): ~320 KB. The bound is half the former,
  // 547 KB, which the staged layout meets with room and the per-delivery
  // one cannot.
  constexpr ProcId kN = 128;
  constexpr std::uint64_t kBound = 547 * 1024;
  Simulator sim(7);
  sim.reserve_all_to_all(kN);
  const std::unique_ptr<DelayModel> delays =
      make_delay_model(DelayConfig::uniform(50, 150));
  CrashTracker crashes(static_cast<std::size_t>(kN));
  SimNetwork net(sim, *delays, crashes, kN);
  std::uint64_t delivered = 0;
  net.set_deliver([&delivered](ProcId, ProcId, const Message&) {
    ++delivered;
  });
  const Message m = Message::phase_msg(1, Phase::One, Estimate::One);
  const std::uint64_t before = bytes_allocated();
  for (ProcId p = 0; p < kN; ++p) net.broadcast(p, m);
  EXPECT_EQ(sim.run(), StopReason::Quiescent);
  const std::uint64_t bytes = bytes_allocated() - before;
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kN) * kN);
  EXPECT_LE(bytes, kBound) << bytes / 1024 << " KB for one wave";
}

TEST(AllocFree, WarmAllToAllWaveAllocatesNothing) {
  // After one warm-up wave at n = 128 (every process broadcasts once, then
  // run()), a second wave allocates nothing: each broadcast plans its 128
  // copies in the network's reusable buffer, draws their delays in one
  // call and files them in one push onto blocks, payload slots and tick
  // buffers the first wave left warm.
  constexpr ProcId kN = 128;
  Simulator sim(7);
  sim.reserve_all_to_all(kN);
  const std::unique_ptr<DelayModel> delays =
      make_delay_model(DelayConfig::uniform(50, 150));
  CrashTracker crashes(static_cast<std::size_t>(kN));
  SimNetwork net(sim, *delays, crashes, kN);
  std::uint64_t delivered = 0;
  net.set_deliver([&delivered](ProcId, ProcId, const Message&) {
    ++delivered;
  });
  const Message m = Message::phase_msg(1, Phase::One, Estimate::One);
  for (ProcId p = 0; p < kN; ++p) net.broadcast(p, m);
  EXPECT_EQ(sim.run(), StopReason::Quiescent);
  const std::uint64_t before = allocations();
  for (ProcId p = 0; p < kN; ++p) net.broadcast(p, m);
  EXPECT_EQ(sim.run(), StopReason::Quiescent);
  const std::uint64_t allocated = allocations() - before;
  EXPECT_EQ(delivered, 2 * static_cast<std::uint64_t>(kN) * kN);
  EXPECT_EQ(allocated, 0u);
}

TEST(AllocFree, MsgExchangeCreditAndQuorumTestAllocateNothing) {
  // Sixteen exchanges at n = 16, m = 4, alternating phases; every process
  // is credited, the quorum and support are read after each credit, and
  // the rec set once the exchange is complete.
  const auto layout = ClusterLayout::even(16, 4);
  NullNetwork net(16);
  MsgExchange ex(layout, net, 0);
  std::uint64_t allocated = 0;
  int full_rounds = 0;
  int satisfied_reads = 0;
  int full_recs = 0;
  for (Round r = 1; r <= 16; ++r) {
    const Phase ph = r % 2 == 1 ? Phase::One : Phase::Two;
    const std::uint64_t before = allocations();
    ex.begin(r, ph, Estimate::One);
    for (ProcId p = 0; p < 16; ++p) {
      // Every cluster holds both parities; in phase 2 its last member
      // sends ⊥.
      const Estimate v = ph == Phase::Two && p % 4 == 3
                             ? Estimate::Bot
                             : estimate_from_bit(p % 2);
      ex.credit(p, v);
      if (ex.satisfied() && ex.support(v) > 0) ++satisfied_reads;
    }
    if (ex.support(Estimate::Zero) == 16 && ex.support(Estimate::One) == 16 &&
        ex.support(Estimate::Bot) == (ph == Phase::Two ? 16 : 0)) {
      ++full_rounds;
    }
    const EstimateSet want =
        ph == Phase::Two
            ? estimate_set({Estimate::Zero, Estimate::One, Estimate::Bot})
            : estimate_set({Estimate::Zero, Estimate::One});
    if (ex.values_received() == want) ++full_recs;
    allocated += allocations() - before;
  }
  EXPECT_EQ(full_rounds, 16);
  EXPECT_EQ(full_recs, 16);
  // The third cluster's first member tips coverage past n/2 = 8.
  EXPECT_EQ(satisfied_reads, 16 * (16 - 8));
  EXPECT_EQ(allocated, 0u);
}

TEST(AllocFree, ClusterMemoryFirstChunkAllocatesNothing) {
  // Every member of a 4-process cluster proposes to both phases of every
  // round the inline first chunk holds.
  ClusterMemory mem(0, 16);
  const std::uint64_t before = allocations();
  int agreed = 0;
  for (Round r = 1; r <= ClusterMemory::kFirstChunkRounds; ++r) {
    for (const Phase ph : {Phase::One, Phase::Two}) {
      const Estimate first = estimate_from_bit(r % 2);
      for (ProcId p = 0; p < 4; ++p) {
        const Estimate v = p == 0 ? first : estimate_from_bit(p % 2);
        if (mem.cons(r, ph).propose(p, v) == first) ++agreed;
      }
    }
  }
  const std::uint64_t allocated = allocations() - before;
  EXPECT_EQ(agreed, ClusterMemory::kFirstChunkRounds * 2 * 4);
  EXPECT_EQ(mem.objects_created(),
            static_cast<std::uint64_t>(ClusterMemory::kFirstChunkRounds) * 2);
  EXPECT_EQ(allocated, 0u);
}

TEST(AllocFree, ClusterMemoryAllocatesOneChunkPerDoubling) {
  // Proposals to both phases of rounds 1..1000: past the first chunk, the
  // memory may allocate once each time the rounds it holds double.
  constexpr Round kRounds = 1000;
  int doublings = 0;
  for (Round held = ClusterMemory::kFirstChunkRounds; held < kRounds;
       held *= 2) {
    ++doublings;
  }
  ClusterMemory mem(0, 2);
  const std::uint64_t before = allocations();
  for (Round r = 1; r <= kRounds; ++r) {
    mem.cons(r, Phase::One).propose(0, Estimate::One);
    mem.cons(r, Phase::Two).propose(1, Estimate::Bot);
  }
  const std::uint64_t allocated = allocations() - before;
  EXPECT_EQ(mem.objects_created(), 2u * kRounds);
  EXPECT_EQ(doublings, 7);
  EXPECT_LE(allocated, static_cast<std::uint64_t>(doublings));
}

}  // namespace
}  // namespace hyco
