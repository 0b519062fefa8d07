// The shared memory MEM_x of one cluster P[x] (Section II-A / III-B).
//
// The paper enriches MEM_x with compare&swap, so each of its consensus
// objects — CONS_x[r, 1] and CONS_x[r, 2] of Algorithm 2, CONS_x[r] of
// Algorithm 3 (phase One here) — is one std::atomic<std::int8_t>, and
// propose(v) is one compare&swap from "empty" to v that returns v or the
// winner. That is wait-free and linearizable, so the simulator and the
// thread host (src/runtime/) share this one memory.
//
// The number of rounds is unbounded a priori. The cells form a
// round-indexed array of chunks: the first chunk is inline, and each
// further chunk doubles the rounds held. A chunk is published once with a
// CAS, never moves, and is freed by the destructor, so propose takes no
// lock and allocates nothing once its chunk exists.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "core/types.h"
#include "shm/op_counts.h"

namespace hyco {

/// MEM_x: the CONS_x[r, ph] objects of one cluster plus their counters.
/// Only the processes of cluster x may touch their MEM_x (in an m&m run,
/// whose clusters are singletons, memory x is shared by x and its
/// neighbours); the runner enforces this wiring, and the memory records
/// which cluster it is for.
/// Thread-safe: the members of a cluster may propose from their own
/// threads.
class ClusterMemory {
  using Cell = std::atomic<std::int8_t>;

 public:
  /// Rounds held by the inline first chunk.
  static constexpr Round kFirstChunkRounds = 8;

  /// CONS_x[r, ph]: a one-shot binary consensus object over {0, 1, ⊥}.
  /// ⊥ is a proposable value (Algorithm 2 proposes it to CONS_x[r, 2]),
  /// distinct from the object's empty state.
  class Cons {
   public:
    /// Proposes v on behalf of `proposer` and returns the object's value:
    /// v if this is the first proposal, else the first proposal's value.
    Estimate propose(ProcId proposer, Estimate v);

   private:
    friend class ClusterMemory;
    Cons(ClusterMemory& mem, Cell& cell) : mem_(&mem), cell_(&cell) {}
    ClusterMemory* mem_;
    Cell* cell_;
  };

  /// The memory of cluster `cluster`; proposer ids must lie in [0, n).
  ClusterMemory(ClusterId cluster, ProcId n);
  ~ClusterMemory();
  ClusterMemory(const ClusterMemory&) = delete;
  ClusterMemory& operator=(const ClusterMemory&) = delete;

  /// CONS_x[r, ph]; rounds start at 1.
  Cons cons(Round r, Phase ph);

  /// CONS_x[r] — Algorithm 3's single-phase array.
  Cons cons(Round r) { return cons(r, Phase::One); }

  [[nodiscard]] ClusterId cluster() const { return cluster_; }

  /// Operation counts. A proposal is one CAS attempt whose outcome reads
  /// the winner; the CAS succeeds for the first proposal to an object.
  [[nodiscard]] ShmOpCounts counts() const;

  /// Objects that received a proposal.
  [[nodiscard]] std::uint64_t objects_created() const {
    return won_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::int8_t kEmpty = -1;
  /// Chunk k >= 1 holds kFirstChunkRounds << (k - 1) rounds; 28 of them
  /// reach every positive Round.
  static constexpr int kMoreChunks = 28;

  ClusterId cluster_;
  ProcId n_;
  std::atomic<std::uint64_t> proposals_{0};
  std::atomic<std::uint64_t> won_{0};
  std::array<Cell, 2 * kFirstChunkRounds> first_;
  std::array<std::atomic<Cell*>, kMoreChunks> more_{};
};

}  // namespace hyco
