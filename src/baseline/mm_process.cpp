#include "baseline/mm_process.h"

#include "util/assert.h"

namespace hyco {

MmMemories::MmMemories(const MmDomain& domain) {
  memories_.reserve(static_cast<std::size_t>(domain.n()));
  for (ProcId i = 0; i < domain.n(); ++i) {
    // Reuse ClusterMemory as the round-indexed consensus array; the
    // "cluster" id doubles as the owner id of the p_i-centered memory.
    memories_.push_back(std::make_unique<ClusterMemory>(i, domain.n()));
  }
}

ClusterMemory::Cons MmMemories::cons(ProcId owner, Round r, Phase ph) {
  return memories_.at(static_cast<std::size_t>(owner))->cons(r, ph);
}

ShmOpCounts MmMemories::total() const {
  ShmOpCounts t;
  for (const auto& m : memories_) t += m->counts();
  return t;
}

MmProcess::MmProcess(ProcId self, const MmDomain& domain,
                     MmMemories& memories, INetwork& net,
                     std::uint64_t coin_seed, Round max_rounds)
    : self_(self),
      n_(domain.n()),
      domain_(domain),
      memories_(memories),
      net_(net),
      coin_(coin_seed),
      max_rounds_(max_rounds) {
  HYCO_CHECK_MSG(self >= 0 && self < n_, "bad process id " << self);
}

MmProcess::Tally& MmProcess::tally(Round r, Phase ph) {
  const auto key = std::make_pair(r, static_cast<int>(ph));
  auto it = tallies_.find(key);
  if (it == tallies_.end()) it = tallies_.emplace(key, Tally(n_)).first;
  return it->second;
}

Estimate MmProcess::propose_to_domain(Round r, Phase ph, Estimate v) {
  // α_i + 1 consensus-object invocations: own memory first, then each
  // neighbor's p_j-centered memory.
  ++stats_.cons_invocations;
  const Estimate own = memories_.cons(self_, r, ph).propose(self_, v);
  for (const ProcId j : domain_.neighbors(self_)) {
    ++stats_.cons_invocations;
    memories_.cons(j, r, ph).propose(self_, v);
  }
  return own;  // adopt the winner of our own memory
}

void MmProcess::start(Estimate proposal) {
  HYCO_CHECK_MSG(!started_, "start() called twice");
  HYCO_CHECK_MSG(is_binary(proposal), "proposals must be binary");
  started_ = true;
  est1_ = proposal;
  enter_round();
  progress();
}

void MmProcess::enter_round() {
  if (round_ >= max_rounds_) {
    parked_ = true;
    return;
  }
  ++round_;
  ++stats_.rounds_entered;
  phase_ = Phase::One;
  est1_ = propose_to_domain(round_, Phase::One, est1_);
  net_.broadcast(self_, Message::phase_msg(round_, Phase::One, est1_));
}

void MmProcess::on_message(ProcId from, const Message& m) {
  if (decided()) return;
  if (m.kind == MsgKind::Decide) {
    decide(m.est);
    return;
  }
  Tally& t = tally(m.round, m.phase);
  const auto idx = static_cast<std::size_t>(from);
  if (t.senders.test(idx)) return;
  t.senders.set(idx);
  ++t.counts[estimate_index(m.est)];
  ++stats_.phase_msgs_handled;
  progress();
}

void MmProcess::progress() {
  while (!decided() && !parked_) {
    const Tally& t = tally(round_, phase_);
    if (!majority(t.distinct())) return;
    if (phase_ == Phase::One) {
      complete_phase1();
    } else {
      complete_phase2();
    }
  }
}

void MmProcess::complete_phase1() {
  const Tally& t = tally(round_, Phase::One);
  Estimate championed = Estimate::Bot;
  for (const Estimate v : {Estimate::Zero, Estimate::One}) {
    if (majority(t.counts[estimate_index(v)])) {
      championed = v;
      break;
    }
  }
  phase_ = Phase::Two;
  est2_ = propose_to_domain(round_, Phase::Two, championed);
  net_.broadcast(self_, Message::phase_msg(round_, Phase::Two, est2_));
}

void MmProcess::complete_phase2() {
  const Tally& t = tally(round_, Phase::Two);
  const bool has0 = t.counts[estimate_index(Estimate::Zero)] > 0;
  const bool has1 = t.counts[estimate_index(Estimate::One)] > 0;
  const bool has_bot = t.counts[estimate_index(Estimate::Bot)] > 0;

  if ((has0 || has1) && !(has0 && has1) && !has_bot) {
    decide(has0 ? Estimate::Zero : Estimate::One);
  } else if (has0 || has1) {
    // {v, ⊥} (or the memory-mixed {0,1,...} corner): adopt a binary value.
    est1_ = has0 ? Estimate::Zero : Estimate::One;
    enter_round();
  } else {
    ++stats_.coin_flips;
    est1_ = estimate_from_bit(coin_.flip_counted());
    enter_round();
  }
}

void MmProcess::decide(Estimate v) {
  if (decided()) return;
  HYCO_CHECK_MSG(is_binary(v), "cannot decide ⊥");
  net_.broadcast(self_, Message::decide_msg(v));
  decision_ = v;
  decision_round_ = round_;
}

}  // namespace hyco
