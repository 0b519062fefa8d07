// One replica of the replicated state machine: a batcher feeding a
// total-order broadcast process, plus the per-slot decided log.
//
// Client ops submitted here buffer in the batcher; each flush mints a batch
// id from the run's registry and submits it to the TOB, whose per-slot
// deliver hook appends to this replica's slot log (NOOPs included, so the
// safety checker can verify gap-free sequencing) and surfaces delivered
// batches to the runner for op completion.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/total_order.h"
#include "service/batcher.h"
#include "service/types.h"
#include "sim/crash.h"
#include "sim/simulator.h"

namespace hyco {

class ServiceReplica {
 public:
  /// Fired when this replica delivers a (non-NOOP) batch, in slot order.
  /// `slot` is the log position, so callers can attribute the delivery to
  /// this replica's consensus span for that slot (slot_started_at).
  using DeliverBatchFn = std::function<void(const Batch& batch, int slot)>;
  /// Fired after this replica's batcher flushes a batch into the TOB.
  using FlushFn = std::function<void(const Batch& batch)>;
  /// Fired when this replica starts participating in a slot's consensus.
  using SlotStartFn = std::function<void(int slot)>;

  ServiceReplica(ProcId self, const ClusterLayout& layout, INetwork& net,
                 MemoryPool& pool, ICommonCoin& coin, Simulator& sim,
                 const CrashTracker& tracker, BatchRegistry& registry,
                 Round max_rounds_per_bit, std::size_t batch_max,
                 SimTime batch_delay);

  ServiceReplica(const ServiceReplica&) = delete;
  ServiceReplica& operator=(const ServiceReplica&) = delete;

  /// Buffers one client op for batching (dropped if this replica crashed).
  void submit_op(std::uint64_t op_id);

  void on_message(ProcId from, const Message& m);

  void set_on_deliver(DeliverBatchFn fn) { on_deliver_ = std::move(fn); }
  void set_on_flush(FlushFn fn) { on_flush_ = std::move(fn); }
  void set_on_slot_start(SlotStartFn fn) { on_slot_start_ = std::move(fn); }

  /// Sim time this replica started slot `slot`'s consensus; -1 if it never
  /// participated in that slot.
  [[nodiscard]] SimTime slot_started_at(int slot) const {
    const auto i = static_cast<std::size_t>(slot);
    return i < slot_started_.size() ? slot_started_[i] : -1;
  }

  /// Decided slots in order, NOOPs included.
  [[nodiscard]] const std::vector<SlotRecord>& slot_log() const {
    return slots_;
  }
  [[nodiscard]] std::uint64_t batches_proposed() const {
    return batcher_.flushes();
  }

 private:
  ProcId self_;
  Simulator& sim_;
  const CrashTracker& tracker_;
  BatchRegistry& registry_;
  TobProcess tob_;
  Batcher batcher_;
  std::vector<SlotRecord> slots_;
  std::vector<SimTime> slot_started_;  ///< indexed by slot; -1 = never
  DeliverBatchFn on_deliver_;
  FlushFn on_flush_;
  SlotStartFn on_slot_start_;
};

}  // namespace hyco
