// Unit tests for the shared-memory substrate: the cluster memory's CAS
// consensus objects must satisfy the consensus spec (agreement on the first
// proposal, wait-freedom, and — critically for Algorithm 2 — ⊥ must be
// proposable), grow past their inline chunk, count exactly, and stay
// linearizable when threads race through the same objects.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "shm/cluster_memory.h"
#include "util/assert.h"

namespace hyco {
namespace {

TEST(ConsensusObjectContract, FirstProposalWins) {
  ClusterMemory mem(0, 8);
  EXPECT_EQ(mem.cons(1).propose(0, Estimate::One), Estimate::One);
  EXPECT_EQ(mem.cons(1).propose(1, Estimate::Zero), Estimate::One);
  EXPECT_EQ(mem.cons(1).propose(2, Estimate::One), Estimate::One);
  EXPECT_EQ(mem.counts().consensus_proposals, 3u);
}

TEST(ConsensusObjectContract, BotIsAProposableValue) {
  // Algorithm 2 proposes ⊥ to CONS_x[r,2]; the object must treat ⊥ as a
  // first-class value, not as "undecided".
  ClusterMemory mem(0, 8);
  EXPECT_EQ(mem.cons(1, Phase::Two).propose(0, Estimate::Bot), Estimate::Bot);
  EXPECT_EQ(mem.cons(1, Phase::Two).propose(1, Estimate::One), Estimate::Bot);
}

TEST(ConsensusObjectContract, IdempotentReProposal) {
  ClusterMemory mem(0, 8);
  EXPECT_EQ(mem.cons(1).propose(3, Estimate::Zero), Estimate::Zero);
  EXPECT_EQ(mem.cons(1).propose(3, Estimate::Zero), Estimate::Zero);
}

TEST(ClusterMemory, ObjectsAreDistinctPerRoundAndPhase) {
  ClusterMemory mem(0, 4);
  EXPECT_EQ(mem.cons(1, Phase::One).propose(0, Estimate::One), Estimate::One);
  EXPECT_EQ(mem.cons(1, Phase::One).propose(1, Estimate::Zero), Estimate::One);
  EXPECT_EQ(mem.cons(1, Phase::Two).propose(1, Estimate::Zero), Estimate::Zero);
  EXPECT_EQ(mem.cons(2, Phase::One).propose(2, Estimate::Bot), Estimate::Bot);
  EXPECT_EQ(mem.objects_created(), 3u);
}

TEST(ClusterMemory, SinglePhaseAccessorIsPhaseOne) {
  ClusterMemory mem(1, 4);
  EXPECT_EQ(mem.cons(3).propose(0, Estimate::Zero), Estimate::Zero);
  EXPECT_EQ(mem.cons(3, Phase::One).propose(1, Estimate::One), Estimate::Zero);
  EXPECT_EQ(mem.cluster(), 1);
}

TEST(ClusterMemory, RoundsStartAtOne) {
  ClusterMemory mem(0, 4);
  EXPECT_THROW(mem.cons(0, Phase::One), ContractViolation);
  EXPECT_THROW(mem.cons(-3, Phase::One), ContractViolation);
}

TEST(ClusterMemory, ProposerIdsAreBoundedByN) {
  ClusterMemory mem(0, 4);
  EXPECT_THROW(mem.cons(1).propose(4, Estimate::One), ContractViolation);
  EXPECT_THROW(mem.cons(1).propose(-1, Estimate::One), ContractViolation);
  EXPECT_EQ(mem.counts().consensus_proposals, 0u);
}

TEST(ClusterMemory, CountsAggregateAcrossObjects) {
  ClusterMemory mem(0, 4);
  mem.cons(1, Phase::One).propose(0, Estimate::Zero);
  mem.cons(1, Phase::Two).propose(0, Estimate::Bot);
  mem.cons(2, Phase::One).propose(1, Estimate::One);
  mem.cons(2, Phase::One).propose(2, Estimate::Zero);
  const ShmOpCounts c = mem.counts();
  EXPECT_EQ(c.consensus_proposals, 4u);
  EXPECT_EQ(c.cas_attempts, 4u);
  EXPECT_EQ(c.reads, 4u);
  EXPECT_EQ(c.cas_successes, 3u);
  EXPECT_EQ(mem.objects_created(), 3u);
}

TEST(ClusterMemory, EveryRoundKeepsItsOwnObjectsAcrossChunks) {
  // Rounds 1..1000 span the inline chunk and seven doubling chunks. Each
  // object keeps the first value proposed to it, whatever the order the
  // rounds are touched in.
  ClusterMemory mem(0, 2);
  const auto first = [](Round r, Phase ph) {
    return estimate_from_bit((r + static_cast<int>(ph)) % 2);
  };
  for (Round r = 1000; r >= 1; --r) {
    for (const Phase ph : {Phase::One, Phase::Two}) {
      EXPECT_EQ(mem.cons(r, ph).propose(0, first(r, ph)), first(r, ph));
    }
  }
  for (Round r = 1; r <= 1000; ++r) {
    for (const Phase ph : {Phase::One, Phase::Two}) {
      EXPECT_EQ(mem.cons(r, ph).propose(1, Estimate::Bot), first(r, ph));
    }
  }
  EXPECT_EQ(mem.objects_created(), 2000u);
  EXPECT_EQ(mem.counts().consensus_proposals, 4000u);
}

TEST(ClusterMemory, ThreadsRacingThroughChunksReadOneWinnerPerObject) {
  // Eight threads propose their own parity to both phases of rounds
  // 1..200, crossing five chunk boundaries, each publishing chunks as it
  // goes. Every thread must read the same winner for every object, and the
  // counters must be exact.
  constexpr int kThreads = 8;
  constexpr Round kRounds = 200;
  ClusterMemory mem(0, kThreads);
  std::vector<std::vector<Estimate>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kThreads; ++p) {
    threads.emplace_back([&, p] {
      auto& mine = seen[static_cast<std::size_t>(p)];
      mine.reserve(2 * kRounds);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (Round r = 1; r <= kRounds; ++r) {
        for (const Phase ph : {Phase::One, Phase::Two}) {
          mine.push_back(mem.cons(r, ph).propose(p, estimate_from_bit(p % 2)));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (ProcId p = 1; p < kThreads; ++p) {
    EXPECT_EQ(seen[static_cast<std::size_t>(p)], seen[0]) << "p" << p;
  }
  EXPECT_EQ(mem.objects_created(), 2u * kRounds);
  EXPECT_EQ(mem.counts().consensus_proposals,
            static_cast<std::uint64_t>(kThreads) * 2 * kRounds);
  EXPECT_EQ(mem.counts().cas_successes, 2u * kRounds);
}

TEST(OpCounts, Accumulate) {
  ShmOpCounts a, b;
  a.reads = 1;
  a.cas_attempts = 2;
  b.reads = 10;
  b.consensus_proposals = 5;
  a += b;
  EXPECT_EQ(a.reads, 11u);
  EXPECT_EQ(a.cas_attempts, 2u);
  EXPECT_EQ(a.consensus_proposals, 5u);
}

}  // namespace
}  // namespace hyco
