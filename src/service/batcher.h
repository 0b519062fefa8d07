// Proposal batching: many client ops per decided consensus value.
//
// A batch flushes when it reaches `batch_max` ops or when `batch_delay` sim
// time has passed since its first op, whichever comes first — the standard
// size-or-deadline policy. With batch_delay == 0 every op flushes alone
// (batching effectively off), which is the baseline the batching-throughput
// comparison in the README runs against.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"

namespace hyco {

class Batcher {
 public:
  /// Receives the flushed ops (ClientOp ids, submission order).
  using FlushFn = std::function<void(std::vector<std::uint64_t> ops)>;

  Batcher(Simulator& sim, std::size_t batch_max, SimTime batch_delay,
          FlushFn flush);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Buffers one op; may flush synchronously (size reached or delay 0).
  void add(std::uint64_t op_id);

 private:
  void flush();

  Simulator& sim_;
  std::size_t batch_max_;
  SimTime batch_delay_;
  FlushFn flush_fn_;
  std::vector<std::uint64_t> buf_;
  // Each flush bumps the epoch; a deadline timer only fires for the batch
  // that scheduled it (stale timers from already-flushed batches are no-ops).
  std::uint64_t epoch_ = 0;
};

}  // namespace hyco
