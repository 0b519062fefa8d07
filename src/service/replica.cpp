#include "service/replica.h"

#include <utility>

namespace hyco {

ServiceReplica::ServiceReplica(ProcId self, const ClusterLayout& layout,
                               INetwork& net, MemoryPool& pool,
                               ICommonCoin& coin, Simulator& sim,
                               const CrashTracker& tracker,
                               BatchRegistry& registry,
                               Round max_rounds_per_bit,
                               std::size_t batch_max, SimTime batch_delay)
    : self_(self),
      sim_(sim),
      tracker_(tracker),
      registry_(registry),
      tob_(self, layout, net, pool, coin, max_rounds_per_bit),
      batcher_(sim, batch_max, batch_delay,
               [this](std::vector<std::uint64_t> ops) {
                 // A deadline timer may fire after this replica crashed;
                 // a dead replica must not originate proposals.
                 if (tracker_.is_crashed(self_)) return;
                 const std::uint64_t id =
                     registry_.mint(self_, std::move(ops), sim_.now());
                 tob_.submit(id);
                 if (on_flush_) on_flush_(registry_.get(id));
               }) {
  tob_.set_deliver_hook([this](int slot, std::uint64_t payload) {
    slots_.push_back(SlotRecord{slot, payload});
    if (payload != TobProcess::kNoop && on_deliver_) {
      on_deliver_(registry_.get(payload), slot);
    }
  });
  // Slot-start times feed the latency attribution (batching wait vs slot
  // queueing vs consensus); recorded unconditionally, they are cheap and
  // strictly observational.
  tob_.set_slot_start_hook([this](int slot) {
    const auto i = static_cast<std::size_t>(slot);
    if (slot_started_.size() <= i) slot_started_.resize(i + 1, -1);
    slot_started_[i] = sim_.now();
    if (on_slot_start_) on_slot_start_(slot);
  });
}

void ServiceReplica::submit_op(std::uint64_t op_id) {
  if (tracker_.is_crashed(self_)) return;
  batcher_.add(op_id);
}

void ServiceReplica::on_message(ProcId from, const Message& m) {
  tob_.on_message(from, m);
}

}  // namespace hyco
