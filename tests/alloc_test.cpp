// Heap-allocation guards for the run hot path. This binary replaces the
// global operator new and operator delete with counting versions, so a test
// can assert that a steady-state loop allocates nothing: the event queue's
// push_deliver → pop_tick cycle once its blocks, slab slots and tick buffer
// are warm, the simulator's tick loop over broadcast bursts, and
// msg_exchange's crediting and quorum test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/cluster_layout.h"
#include "core/msg_exchange.h"
#include "net/delay_model.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/crash.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

 private:
  ProcId n_;
};

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

TEST(AllocFree, MsgExchangeCreditAndQuorumTestAllocateNothing) {
  // Sixteen exchanges at n = 16, m = 4, alternating phases; every process
  // is credited and the quorum and support are read after each credit.
  const auto layout = ClusterLayout::even(16, 4);
  NullNetwork net(16);
  MsgExchange ex(layout, net, 0);
  std::uint64_t allocated = 0;
  int full_rounds = 0;
  int satisfied_reads = 0;
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
    allocated += allocations() - before;
  }
  EXPECT_EQ(full_rounds, 16);
  // The third cluster's first member tips coverage past n/2 = 8.
  EXPECT_EQ(satisfied_reads, 16 * (16 - 8));
  EXPECT_EQ(allocated, 0u);
}

}  // namespace
}  // namespace hyco
