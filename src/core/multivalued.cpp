#include "core/multivalued.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"
#include "util/log.h"

namespace hyco {

ClusterMemory& MemoryPool::get(InstanceId instance, ClusterId cluster) {
  const auto key = std::make_pair(instance, cluster);
  auto it = memories_.find(key);
  if (it == memories_.end()) {
    it = memories_
             .emplace(key,
                      std::make_unique<ClusterMemory>(cluster, n_, impl_))
             .first;
  }
  return *it->second;
}

ShmOpCounts MemoryPool::total() const {
  ShmOpCounts t;
  for (const auto& [key, mem] : memories_) t += mem->counts();
  return t;
}

std::uint64_t MemoryPool::objects_created() const {
  std::uint64_t t = 0;
  for (const auto& [key, mem] : memories_) t += mem->objects_created();
  return t;
}

int MultiValuedProcess::index_bits(ProcId n) {
  HYCO_CHECK_MSG(n >= 1, "multivalued consensus needs a process");
  return std::max(
      1, static_cast<int>(std::bit_width(static_cast<std::uint32_t>(n - 1))));
}

MultiValuedProcess::MultiValuedProcess(ProcId self,
                                       const ClusterLayout& layout,
                                       INetwork& net, MemoryPool& pool,
                                       ICommonCoin& coin,
                                       Round max_rounds_per_bit,
                                       InstanceId instance_base)
    : self_(self),
      layout_(layout),
      net_(net),
      pool_(pool),
      coin_(coin),
      bits_(index_bits(layout.n())),
      max_rounds_per_bit_(max_rounds_per_bit),
      instance_base_(instance_base),
      base_net_(net, instance_base),
      values_(static_cast<std::size_t>(layout.n())) {
  HYCO_CHECK_MSG(instance_base >= 0, "instance base must be non-negative");
}

MultiValuedProcess::~MultiValuedProcess() = default;

std::optional<std::uint64_t> MultiValuedProcess::min_matching_origin() const {
  // The origins matching the decided prefix are one contiguous index range.
  const int rest = bits_ - bit_;
  const std::uint64_t lo = prefix_ << rest;
  const std::uint64_t hi =
      std::min<std::uint64_t>((prefix_ + 1) << rest, values_.size());
  for (std::uint64_t o = lo; o < hi; ++o) {
    if (values_[o].has_value()) return o;
  }
  return std::nullopt;
}

void MultiValuedProcess::start(std::uint64_t proposal) {
  HYCO_CHECK_MSG(!started_, "start() called twice on p" << self_);
  started_ = true;
  // Step 1: URB our own value. Our own delivery happens when the broadcast
  // loops back; record it immediately so bit 0 can start.
  values_[static_cast<std::size_t>(self_)] = proposal;
  base_net_.broadcast(self_, Message::value_msg(self_, proposal));
  maybe_start_bit();
}

void MultiValuedProcess::urb_deliver(ProcId origin, std::uint64_t value) {
  auto& slot = values_[static_cast<std::size_t>(origin)];
  if (slot.has_value()) return;
  slot = value;
  // Relay before use: this is what makes the broadcast uniform-reliable —
  // if any process delivers, every correct process eventually does.
  base_net_.broadcast(self_, Message::value_msg(origin, value));
  if (!decided() && embedded_ == nullptr) maybe_start_bit();
}

void MultiValuedProcess::maybe_start_bit() {
  if (decided() || !started_ || embedded_ != nullptr) return;
  if (bit_ == bits_) {
    // Every index bit is decided: the decision is that origin's value, as
    // soon as URB has delivered it here.
    HYCO_CHECK_MSG(prefix_ < values_.size(),
                   "decided index " << prefix_ << " names no process");
    if (values_[prefix_].has_value()) decide_multi(*values_[prefix_]);
    return;
  }
  const auto origin = min_matching_origin();
  if (!origin.has_value()) return;  // wait for URB to deliver a match

  const InstanceId inst = instance_base_ + 1 + bit_;
  inst_net_ = std::make_unique<InstanceNetwork>(net_, inst);
  embedded_ = std::make_unique<CommonCoinProcess>(
      self_, layout_, *inst_net_,
      pool_.get(inst, layout_.cluster_of(self_)), coin_,
      /*checker=*/nullptr, max_rounds_per_bit_);
  const int b = static_cast<int>((*origin >> (bits_ - 1 - bit_)) & 1U);
  embedded_->start(estimate_from_bit(b));
  // Replay any messages that arrived before this instance existed (the
  // backlog is keyed by bit index).
  const auto it = backlog_.find(bit_);
  if (it != backlog_.end()) {
    for (const auto& [from, m] : it->second) embedded_->on_message(from, m);
    backlog_.erase(it);
  }
  poll_embedded();
}

void MultiValuedProcess::poll_embedded() {
  // Advance over as many decided bits as possible (several instances may
  // complete back-to-back out of the backlog).
  while (!decided() && embedded_ != nullptr && embedded_->decided()) {
    const int b = estimate_to_bit(*embedded_->decision());
    prefix_ = (prefix_ << 1) | static_cast<std::uint64_t>(b);
    ++bit_;
    embedded_.reset();
    inst_net_.reset();
    maybe_start_bit();  // the next bit, or the decision after the last
  }
}

void MultiValuedProcess::decide_multi(std::uint64_t value) {
  if (decided()) return;
  HYCO_DEBUG("p" << self_ << " multi-decides " << value);
  base_net_.broadcast(self_, Message::multi_decide_msg(value));
  decision_ = value;
}

void MultiValuedProcess::on_message(ProcId from, const Message& m) {
  switch (m.kind) {
    case MsgKind::Value:
      if (m.instance != instance_base_) return;  // another multiplexed run's
      // URB relaying must continue even after deciding, so that slow
      // processes still receive every delivered value.
      urb_deliver(m.origin, m.value);
      return;
    case MsgKind::MultiDecide:
      if (m.instance != instance_base_) return;
      if (!decided()) decide_multi(m.value);
      return;
    case MsgKind::Phase:
    case MsgKind::Decide:
      break;
    default:
      return;  // register traffic etc. — not ours
  }
  if (decided()) return;

  // Binary traffic of bit index (instance - base - 1).
  const InstanceId rel = m.instance - instance_base_ - 1;
  if (rel < 0 || rel >= bits_) return;  // not ours (other multiplexed runs)
  if (rel < bit_) return;               // already decided that bit
  if (rel > bit_ || embedded_ == nullptr) {
    backlog_[rel].emplace_back(from, m);
    // A DECIDE for the current bit may arrive before we can start it (no
    // matching origin yet): it is replayed in maybe_start_bit().
    return;
  }
  embedded_->on_message(from, m);
  poll_embedded();
}

}  // namespace hyco
