#include "shm/cluster_memory.h"

#include <bit>

#include "util/assert.h"

namespace hyco {

ClusterMemory::ClusterMemory(ClusterId cluster, ProcId n)
    : cluster_(cluster), n_(n) {
  for (Cell& c : first_) c.store(kEmpty, std::memory_order_relaxed);
}

ClusterMemory::~ClusterMemory() {
  for (std::atomic<Cell*>& chunk : more_) {
    delete[] chunk.load(std::memory_order_relaxed);
  }
}

ClusterMemory::Cons ClusterMemory::cons(Round r, Phase ph) {
  HYCO_CHECK_MSG(r >= 1, "round numbers start at 1, got " << r);
  const auto slot = static_cast<std::size_t>(ph == Phase::Two);
  auto i = static_cast<std::uint32_t>(r - 1);
  if (i < kFirstChunkRounds) return {*this, first_[2 * i + slot]};

  // Chunk k holds rounds [F << (k - 1), F << k) of the 0-based index.
  const int k = std::bit_width(i / kFirstChunkRounds);
  const std::uint32_t rounds = std::uint32_t{kFirstChunkRounds} << (k - 1);
  i -= rounds;
  std::atomic<Cell*>& link = more_[static_cast<std::size_t>(k - 1)];
  Cell* chunk = link.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    Cell* fresh = new Cell[2 * static_cast<std::size_t>(rounds)];
    for (std::size_t c = 0; c < 2 * static_cast<std::size_t>(rounds); ++c) {
      fresh[c].store(kEmpty, std::memory_order_relaxed);
    }
    // Publish once; a thread that loses the race adopts the winner's chunk.
    if (link.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      chunk = fresh;
    } else {
      delete[] fresh;
    }
  }
  return {*this, chunk[2 * static_cast<std::size_t>(i) + slot]};
}

Estimate ClusterMemory::Cons::propose(ProcId proposer, Estimate v) {
  HYCO_CHECK_MSG(proposer >= 0 && proposer < mem_->n_,
                 "proposer p" << proposer << " outside [0, " << mem_->n_
                              << ')');
  mem_->proposals_.fetch_add(1, std::memory_order_relaxed);
  std::int8_t seen = kEmpty;
  if (cell_->compare_exchange_strong(seen, static_cast<std::int8_t>(v),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    mem_->won_.fetch_add(1, std::memory_order_relaxed);
    return v;
  }
  return static_cast<Estimate>(seen);  // the failed CAS read the winner
}

ShmOpCounts ClusterMemory::counts() const {
  const std::uint64_t proposals = proposals_.load(std::memory_order_relaxed);
  ShmOpCounts c;
  c.reads = proposals;
  c.cas_attempts = proposals;
  c.cas_successes = objects_created();
  c.consensus_proposals = proposals;
  return c;
}

}  // namespace hyco
