// Shared value types of the replicated service layer: client operations,
// batches (the unit sequenced by consensus), and the run-scoped registry
// that maps the small integer batch ids the consensus core decides back to
// their operation payloads.
//
// The split mirrors the classic agreement/dissemination separation of
// atomic-broadcast systems: consensus orders compact batch *ids* (a few
// bits each, so the bit-by-bit multivalued instances stay cheap), while the
// ops behind an id are disseminated out of band — here, trivially, through
// the shared registry, since all replicas live in one simulation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "sim/simulator.h"

namespace hyco {

/// One client operation, from submission at its origin replica to
/// completion when that replica delivers the batch containing it.
struct ClientOp {
  std::uint64_t id = 0;      ///< 1-based, globally sequential
  std::uint64_t client = 0;  ///< submitting client
  ProcId origin = 0;         ///< replica the client is attached to
  SimTime submit_time = 0;
  bool completed = false;
};

/// A batch of client ops proposed as one consensus value (its id).
struct Batch {
  std::uint64_t id = 0;  ///< 1-based, globally sequential; 0 is the TOB NOOP
  SimTime flushed_at = 0;  ///< when its replica's batcher flushed it
  std::vector<std::uint64_t> ops;  ///< ClientOp ids, submission order
};

/// Run-scoped mint and lookup for batches. Ids are handed out sequentially
/// in event order, which the single-threaded simulator makes deterministic.
class BatchRegistry {
 public:
  std::uint64_t mint(std::vector<std::uint64_t> ops, SimTime flushed_at) {
    Batch b;
    b.id = batches_.size() + 1;
    b.flushed_at = flushed_at;
    b.ops = std::move(ops);
    batches_.push_back(std::move(b));
    return batches_.back().id;
  }

  [[nodiscard]] const Batch& get(std::uint64_t id) const {
    return batches_.at(id - 1);
  }
  [[nodiscard]] std::uint64_t count() const { return batches_.size(); }

 private:
  std::vector<Batch> batches_;
};

/// One decided slot of a replica's log, NOOP fillers included — the raw
/// material of the gap/duplicate safety checker.
struct SlotRecord {
  int slot = 0;
  std::uint64_t batch = 0;  ///< 0 = NOOP

  bool operator==(const SlotRecord&) const = default;
};

}  // namespace hyco
