#include "core/total_order.h"

#include "util/assert.h"
#include "util/log.h"

namespace hyco {

TobProcess::TobProcess(ProcId self, const ClusterLayout& layout,
                       INetwork& net, MemoryPool& pool, ICommonCoin& coin,
                       Round max_rounds_per_bit)
    : self_(self),
      layout_(layout),
      net_(net),
      pool_(pool),
      coin_(coin),
      max_rounds_per_bit_(max_rounds_per_bit),
      stride_(MultiValuedProcess::index_bits(layout.n()) + 1) {}

void TobProcess::submit(std::uint64_t payload) {
  HYCO_CHECK_MSG(payload != kNoop, "payload 0 is reserved for NOOP");
  gossip(self_, payload);
  maybe_start_slot(/*saw_traffic=*/false);
}

void TobProcess::gossip(ProcId origin, std::uint64_t payload) {
  if (payload == kNoop) return;
  if (known_.count(payload) > 0) return;
  known_.insert(payload);
  // Relay-on-first-receipt: uniform-reliable dissemination.
  Message m = Message::value_msg(origin, payload);
  m.kind = MsgKind::TobSubmit;
  net_.broadcast(self_, m);
  if (delivered_set_.count(payload) == 0) pending_.insert(payload);
}

void TobProcess::maybe_start_slot(bool saw_traffic) {
  if (current_ != nullptr) return;
  // Participate when we have something to order, or when someone else is
  // already running this slot (then we contribute a NOOP so the quorum
  // machinery has all live processes on board).
  if (pending_.empty() && !saw_traffic) return;
  current_ = std::make_unique<MultiValuedProcess>(
      self_, layout_, net_, pool_, coin_, max_rounds_per_bit_,
      slot_base(slot_));
  if (slot_start_hook_) slot_start_hook_(slot_);
  const std::uint64_t proposal =
      pending_.empty() ? kNoop : *pending_.begin();
  current_->start(proposal);
  const auto it = slot_backlog_.find(slot_);
  if (it != slot_backlog_.end()) {
    for (const auto& [from, m] : it->second) {
      current_->on_message(from, m);
      if (current_ == nullptr) return;  // slot finished inside poll path
    }
    slot_backlog_.erase(slot_);
  }
  poll_slot();
}

void TobProcess::poll_slot() {
  while (current_ != nullptr && current_->decided()) {
    const std::uint64_t decided = *current_->decision();
    current_.reset();
    if (deliver_hook_) deliver_hook_(slot_, decided);
    if (decided != kNoop) {
      delivered_set_.insert(decided);
      HYCO_DEBUG("p" << self_ << " TOB-delivers " << decided << " at slot "
                     << slot_);
    }
    pending_.erase(decided);
    ++slot_;
    const bool traffic_waiting = slot_backlog_.count(slot_) > 0;
    maybe_start_slot(traffic_waiting);
  }
}

void TobProcess::on_message(ProcId from, const Message& m) {
  if (m.kind == MsgKind::TobSubmit) {
    gossip(m.origin, m.value);
    maybe_start_slot(/*saw_traffic=*/false);
    return;
  }

  const int slot = slot_of_instance(m.instance);
  if (slot < slot_) return;  // finished slots are settled
  if (slot > slot_ || current_ == nullptr) {
    slot_backlog_[slot].emplace_back(from, m);
    if (slot == slot_) {
      // Someone is already running our next slot: join with a NOOP if we
      // have nothing pending (replays the backlog, including this msg).
      maybe_start_slot(/*saw_traffic=*/true);
    }
    return;
  }
  current_->on_message(from, m);
  poll_slot();
}

}  // namespace hyco
