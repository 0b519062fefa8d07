#include "core/msg_exchange.h"

#include <algorithm>

#include "util/assert.h"

namespace hyco {

MsgExchange::MsgExchange(const ClusterLayout& layout, INetwork& net,
                         ProcId self)
    : layout_(layout),
      net_(net),
      self_(self),
      credited_(static_cast<std::size_t>(layout.m())) {}

void MsgExchange::begin(Round r, Phase ph, Estimate est) {
  HYCO_CHECK_MSG(r >= 1, "rounds start at 1");
  round_ = r;
  phase_ = ph;
  est_ = est;
  active_ = true;
  ++begun_;
  std::fill(credited_.begin(), credited_.end(), std::uint8_t{0});
  support_ = {};
  covered_binary_ = 0;
  covered_any_ = 0;
  // Line 3: broadcast (r, ph, est) to everyone, self included.
  net_.broadcast(self_, Message::phase_msg(r, ph, est));
}

void MsgExchange::retransmit() {
  HYCO_CHECK_MSG(active_, "retransmit() outside an active exchange");
  net_.broadcast(self_, Message::phase_msg(round_, phase_, est_));
}

bool MsgExchange::credit(ProcId from, Estimate value) {
  HYCO_CHECK_MSG(active_, "credit() outside an active exchange");
  // Lines 5-6: supporters[v] ∪= cluster(j) — the one-for-all closure.
  const ClusterId x = layout_.cluster_of(from);
  const std::size_t v = estimate_index(value);
  std::uint8_t& seen = credited_[static_cast<std::size_t>(x)];
  const auto bit = static_cast<std::uint8_t>(1u << v);
  if ((seen & bit) == 0) {
    // The cluster's first credit for v: its members join supporters[v] and
    // every union they were not yet part of.
    const ProcId size = layout_.cluster_size(x);
    support_[v] += size;
    if (v != 2 && (seen & 0b011) == 0) covered_binary_ += size;
    if (seen == 0) covered_any_ += size;
    seen |= bit;
  }
  return satisfied();
}

bool MsgExchange::satisfied() const {
  // Line 7. Phase 1 (and Algorithm 3): union of the 0- and 1-supporters.
  // Phase 2: union over the values actually seen ({0 or 1} and ⊥).
  const ProcId covered =
      phase_ == Phase::Two ? covered_any_ : covered_binary_;
  return 2 * covered > layout_.n();
}

ProcId MsgExchange::support(Estimate v) const {
  return support_[estimate_index(v)];
}

std::vector<Estimate> MsgExchange::values_received() const {
  std::vector<Estimate> vals;
  for (const Estimate e : kAllEstimates) {
    if (support_[estimate_index(e)] > 0) vals.push_back(e);
  }
  return vals;
}

}  // namespace hyco
