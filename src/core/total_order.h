// Total-order broadcast (the consensus application par excellence — state
// machine replication) built on REPEATED multivalued consensus over the
// hybrid model: slot s of the log is decided by the s-th multivalued
// instance, all multiplexed over one network via disjoint instance-id
// blocks. A third answer to the paper's closing question about "other
// distributed computing problems" on the hybrid communication model.
//
// Protocol:
//  * submit(payload): gossip the payload (TOBSUBMIT, relayed once by every
//    receiver — uniform-reliable), add it to the local pending set;
//  * while the pending set is non-empty, run the next slot's multivalued
//    consensus proposing the smallest pending payload; processes with
//    nothing pending join in with a NOOP proposal as soon as they see slot
//    traffic (so the one-for-all quorum machinery always has its
//    participants);
//  * every decided slot goes to the deliver hook, in slot order (NOOPs
//    included), and a decided payload is removed from pending everywhere.
//
// Guarantees (inherited from consensus agreement per slot): all processes
// deliver the same log prefix, every payload submitted by a correct
// process is eventually delivered, and fault tolerance is again the
// paper's covering-cluster-set condition — also when processes crash
// inside their own broadcasts. The replicated service (run_service in
// src/service/) is the driver that hosts it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "coin/coin.h"
#include "core/cluster_layout.h"
#include "core/multivalued.h"
#include "net/network.h"

namespace hyco {

/// One process of the total-order broadcast.
class TobProcess {
 public:
  /// Payload value 0 is reserved as the NOOP filler.
  static constexpr std::uint64_t kNoop = 0;

  /// Called once per decided slot, in slot order, NOOP slots included —
  /// the hook a replicated state machine needs to both apply decided
  /// values and verify gap-free sequencing.
  using DeliverHook = std::function<void(int slot, std::uint64_t payload)>;

  /// Each slot's multivalued instance agrees on a proposer index, so a
  /// slot costs MultiValuedProcess::index_bits(n) embedded binary
  /// instances whatever the payloads are.
  TobProcess(ProcId self, const ClusterLayout& layout, INetwork& net,
             MemoryPool& pool, ICommonCoin& coin, Round max_rounds_per_bit);

  TobProcess(const TobProcess&) = delete;
  TobProcess& operator=(const TobProcess&) = delete;

  /// Submits a payload for total-order delivery (must be nonzero and unique
  /// across the run). May be called at any time, repeatedly.
  void submit(std::uint64_t payload);

  void on_message(ProcId from, const Message& m);

  /// Installs the per-slot delivery hook (see DeliverHook).
  void set_deliver_hook(DeliverHook hook) { deliver_hook_ = std::move(hook); }

  /// Called when this process starts participating in a slot's consensus
  /// (its multivalued instance is created). Strictly observational — the
  /// service layer uses it to attribute client latency to queueing vs
  /// consensus, and the trace records a SvcSlot milestone.
  using SlotStartHook = std::function<void(int slot)>;
  void set_slot_start_hook(SlotStartHook hook) {
    slot_start_hook_ = std::move(hook);
  }

 private:
  [[nodiscard]] InstanceId slot_base(int slot) const {
    return static_cast<InstanceId>(slot) * stride_;
  }
  [[nodiscard]] int slot_of_instance(InstanceId inst) const {
    return static_cast<int>(inst / stride_);
  }

  void gossip(ProcId origin, std::uint64_t payload);
  void maybe_start_slot(bool saw_traffic);
  void poll_slot();

  ProcId self_;
  const ClusterLayout& layout_;
  INetwork& net_;
  MemoryPool& pool_;
  ICommonCoin& coin_;
  Round max_rounds_per_bit_;
  /// Instances reserved per slot: 1 (VALUE/MULTIDECIDE) + the index bits.
  InstanceId stride_;
  DeliverHook deliver_hook_;
  SlotStartHook slot_start_hook_;

  std::set<std::uint64_t> known_;      ///< every payload ever gossiped
  std::set<std::uint64_t> pending_;    ///< known but not delivered
  std::set<std::uint64_t> delivered_set_;  ///< decided: gossip re-pends none

  int slot_ = 0;
  std::unique_ptr<MultiValuedProcess> current_;
  std::map<int, std::vector<std::pair<ProcId, Message>>> slot_backlog_;
};

}  // namespace hyco
