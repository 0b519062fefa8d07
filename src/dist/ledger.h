// Chunk-granular work ledger — the coordinator's single source of truth
// about which runs of which cells are pending, leased, or folded.
//
// The grid's run-index space is cut into fixed-grain chunks (never crossing
// a cell or an input span). Each chunk walks a small state machine:
//
//     Pending ──acquire──▶ Leased ──fold──▶ Folded        (exactly once)
//        ▲                   │
//        └──expire / release─┘
//
// fold() is exactly-once by construction: the first result for a chunk is
// accepted (whether its lease is live, expired, or was re-issued — the
// executing worker did real work either way), every later one reports
// Duplicate and is dropped. Combined with merge-order-invariant
// accumulators this is what makes the coordinator's output byte-identical
// to a single-machine run at any worker count, lease grain, or arrival
// order — and identical even when a worker dies mid-chunk and its lease is
// re-executed elsewhere.
//
// The ledger is transport-agnostic plain state (owners are opaque ids,
// time is injected): the TCP coordinator is its only user, and tests can
// drive every transition without sockets or sleeps.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "exp/sink.h"

namespace hyco::dist {

class WorkLedger {
 public:
  using Clock = std::chrono::steady_clock;

  enum class State : std::uint8_t { kPending, kLeased, kFolded };

  struct Lease {
    std::uint64_t chunk_id = 0;
    std::uint64_t cell_pos = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  enum class FoldOutcome : std::uint8_t {
    kAccepted,   ///< first result for this chunk — merge it
    kDuplicate,  ///< chunk already folded — drop the result
    kUnknown,    ///< no such chunk range — protocol violation
  };

  struct FoldResult {
    FoldOutcome outcome = FoldOutcome::kUnknown;
    bool cell_completed = false;  ///< this fold drained the cell
  };

  /// A ledger over `n_cells` cells with chunks of at most `grain` runs.
  WorkLedger(std::size_t n_cells, std::uint64_t grain);

  /// Registers runs [begin, end) of `cell_pos` as pending work, split into
  /// grain-sized chunks. Spans of one cell must be disjoint (the caller
  /// derives them from a checkpoint complement, which guarantees it).
  void add_span(std::uint64_t cell_pos, std::uint64_t begin,
                std::uint64_t end);

  /// Leases the next pending chunk to `owner` until now + ttl; nullopt when
  /// nothing is pending (work may still be leased out — check all_folded()
  /// to distinguish "wait" from "done").
  ///
  /// `max_len` (0 = uncapped) bounds the lease length: a pending chunk
  /// longer than the cap is *split* — the first `max_len` runs go out as
  /// the lease, the remainder re-registers as a fresh pending chunk at the
  /// front of the queue so the range stays contiguous in issue order. This
  /// is how the adaptive lease tail shrinks grains as the pending pool
  /// drains; splitting re-partitions the same run ranges and therefore
  /// never changes output bytes.
  [[nodiscard]] std::optional<Lease> acquire(std::uint64_t owner,
                                             Clock::time_point now,
                                             Clock::duration ttl,
                                             std::uint64_t max_len = 0);

  /// Records the result for chunk [begin, end) of `cell_pos` — see the
  /// state machine above for the exactly-once contract.
  [[nodiscard]] FoldResult fold(std::uint64_t cell_pos, std::uint64_t begin,
                                std::uint64_t end);

  /// Re-queues every chunk leased to `owner` (worker disconnect). Returns
  /// the number of chunks released.
  std::size_t release_owner(std::uint64_t owner);

  /// Re-queues every lease whose deadline has passed. Returns the number
  /// expired.
  std::size_t expire(Clock::time_point now);

  [[nodiscard]] bool all_folded() const {
    return folded_runs_ == total_runs_;
  }
  /// True when every registered run of the cell has folded. Cells with no
  /// registered spans are trivially complete (their runs live in a
  /// checkpoint).
  [[nodiscard]] bool cell_folded(std::uint64_t cell_pos) const {
    return cell_outstanding_.at(static_cast<std::size_t>(cell_pos)) == 0;
  }

  [[nodiscard]] std::uint64_t total_runs() const { return total_runs_; }
  [[nodiscard]] std::uint64_t folded_runs() const { return folded_runs_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] std::size_t pending_chunks() const;
  [[nodiscard]] std::size_t leased_chunks() const { return leased_count_; }
  [[nodiscard]] std::size_t folded_chunks() const;
  /// Chunks currently leased to `owner` (health reporting).
  [[nodiscard]] std::size_t leased_to(std::uint64_t owner) const;
  /// Age in ms of the oldest live lease held by `owner`; 0 when it holds
  /// none (health reporting — a lease aging toward its TTL flags a wedged
  /// or mis-sized worker before expiry fires).
  [[nodiscard]] std::int64_t oldest_lease_age_ms(std::uint64_t owner,
                                                 Clock::time_point now) const;

 private:
  struct Chunk {
    std::uint64_t cell_pos;
    std::uint64_t begin;
    std::uint64_t end;
    State state = State::kPending;
    std::uint64_t owner = 0;
    Clock::time_point issued_at{};
    Clock::time_point deadline{};
  };

  std::uint64_t grain_;
  std::vector<Chunk> chunks_;
  /// (cell_pos, begin) → chunk id, for result lookup by range.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> index_;
  /// Chunk ids in issue order; entries whose state is no longer Pending are
  /// skipped lazily on acquire (re-queued chunks are appended).
  std::deque<std::uint64_t> queue_;
  std::vector<std::uint64_t> cell_outstanding_;  ///< unfolded runs per cell
  std::uint64_t total_runs_ = 0;
  std::uint64_t folded_runs_ = 0;
  std::size_t leased_count_ = 0;
};

/// The adaptive lease grain: the largest power-of-two fraction of `grain`
/// (halving, never below `floor`) such that the unfolded remainder still
/// spreads at least ~2 chunks over every active worker. Early in a sweep
/// this returns `grain` unchanged; as the pending pool drains it shrinks
/// so the tail evens out across workers instead of waiting on one monster
/// lease. Pure so tests can pin the shrink schedule without a coordinator.
[[nodiscard]] std::uint64_t adaptive_lease_cap(std::uint64_t grain,
                                               std::uint64_t floor,
                                               std::uint64_t remaining_runs,
                                               std::size_t active_workers);

}  // namespace hyco::dist
