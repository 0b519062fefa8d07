#include "baseline/ben_or.h"

#include <algorithm>

#include "baseline/mm_domain.h"
#include "shm/cluster_memory.h"
#include "util/assert.h"

namespace hyco {

BenOrProcess::BenOrProcess(
    ProcId self, ProcId n, INetwork& net, std::uint64_t coin_seed,
    Round max_rounds, const MmDomain* domain,
    std::span<const std::unique_ptr<ClusterMemory>> memories)
    : self_(self), n_(n), net_(net), coin_(coin_seed),
      max_rounds_(max_rounds), domain_(domain), memories_(memories) {
  HYCO_CHECK_MSG(self >= 0 && self < n, "bad process id " << self);
  HYCO_CHECK_MSG(max_rounds >= 1, "max_rounds must be >= 1");
  HYCO_CHECK_MSG(domain == nullptr || (domain->n() == n &&
                                       memories.size() ==
                                           static_cast<std::size_t>(n)),
                 "an m&m domain needs n = " << n << " processes and memories");
}

std::size_t BenOrProcess::slot(Round r, Phase ph) {
  HYCO_CHECK_MSG(r >= 1 && r <= max_rounds_,
                 "p" << self_ << " got a PHASE message of round " << r
                     << ", outside [1, " << max_rounds_ << "]");
  const std::size_t s = exchange_slot(r, ph);
  if (s >= counts_.size()) {
    std::size_t size = counts_.empty() ? kFirstExchangeSlots : counts_.size();
    while (size <= s) size *= 2;
    size = std::min(size, exchange_slot(max_rounds_, Phase::Two) + 1);
    counts_.resize(size, Counts{0, 0, 0});
    senders_.resize(size * sender_words(), 0);
  }
  return s;
}

Estimate BenOrProcess::propose_to_domain(Phase ph, Estimate v) {
  if (domain_ == nullptr) return v;
  // A process that crashed inside its last broadcast takes no further
  // step: it halts instead of writing to its neighbours' memories (the
  // broadcast its caller makes next is dropped as the sender's).
  if (net_.crashed(self_)) {
    parked_ = true;
    return v;
  }
  ++stats_.cons_invocations;
  const Estimate own =
      memories_[static_cast<std::size_t>(self_)]->cons(round_, ph).propose(
          self_, v);
  for (const ProcId j : domain_->neighbors(self_)) {
    ++stats_.cons_invocations;
    memories_[static_cast<std::size_t>(j)]->cons(round_, ph).propose(self_, v);
  }
  return own;
}

bool BenOrProcess::start(Estimate proposal) {
  HYCO_CHECK_MSG(!started_, "start() called twice");
  HYCO_CHECK_MSG(is_binary(proposal), "proposals must be binary");
  started_ = true;
  est1_ = proposal;
  // Decided by an early DECIDE: propose() has returned, so no round.
  if (decided()) return false;
  enter_round();
  progress();
  return decided();
}

void BenOrProcess::enter_round() {
  if (round_ >= max_rounds_) {
    parked_ = true;
    return;
  }
  ++round_;
  ++stats_.rounds_entered;
  phase_ = Phase::One;
  est1_ = propose_to_domain(Phase::One, est1_);
  net_.broadcast(self_, Message::phase_msg(round_, Phase::One, est1_));
}

bool BenOrProcess::on_message(ProcId from, const Message& m) {
  if (decided()) {
    // Decision-gossip reply for scenario runs (see ProcessBase::on_message).
    if (assist_ && m.kind != MsgKind::Decide) {
      net_.send(self_, from, Message::decide_msg(*decision_));
    }
    return false;
  }
  if (m.kind == MsgKind::Decide) {
    decide(m.est);
    return true;
  }
  const std::size_t s = slot(m.round, m.phase);
  const auto q = static_cast<std::size_t>(from);
  std::uint64_t& word = senders_[s * sender_words() + q / 64];
  const std::uint64_t bit = std::uint64_t{1} << (q % 64);
  if ((word & bit) != 0) return false;  // defensive: count each sender once
  word |= bit;
  ++counts_[s][estimate_index(m.est)];
  ++stats_.phase_msgs_handled;
  progress();
  return decided();
}

void BenOrProcess::on_recover() {
  if (!started_ || parked_) return;
  if (decided()) {
    net_.broadcast(self_, Message::decide_msg(*decision_));
    return;
  }
  // Retransmit this (round, phase)'s value — identical to the original
  // broadcast, and peers count each sender once.
  const Estimate est = phase_ == Phase::One ? est1_ : est2_;
  net_.broadcast(self_, Message::phase_msg(round_, phase_, est));
}

void BenOrProcess::progress() {
  // Before start() no round is open: messages only wait in their slots.
  if (!started_) return;
  while (!decided() && !parked_) {
    if (!majority(distinct(slot(round_, phase_)))) {
      return;  // wait for > n/2 senders
    }
    if (phase_ == Phase::One) {
      complete_phase1();
    } else {
      complete_phase2();
    }
  }
}

void BenOrProcess::complete_phase1() {
  const Counts& c = counts_[slot(round_, Phase::One)];
  est2_ = Estimate::Bot;
  for (const Estimate v : {Estimate::Zero, Estimate::One}) {
    if (majority(c[estimate_index(v)])) {
      est2_ = v;
      break;
    }
  }
  phase_ = Phase::Two;
  est2_ = propose_to_domain(Phase::Two, est2_);
  net_.broadcast(self_, Message::phase_msg(round_, Phase::Two, est2_));
}

void BenOrProcess::complete_phase2() {
  const Counts& c = counts_[slot(round_, Phase::Two)];
  const bool has0 = c[estimate_index(Estimate::Zero)] > 0;
  const bool has1 = c[estimate_index(Estimate::One)] > 0;
  const bool has_bot = c[estimate_index(Estimate::Bot)] > 0;
  // Two distinct phase-2 values are impossible (each comes from a majority
  // of phase-1 senders, and majorities intersect; an m&m memory's winner is
  // one of the values proposed to it, so m&m's est2 is that value or ⊥
  // too); guard anyway so a bug here can never decide unsafely.
  HYCO_CHECK_MSG(!(has0 && has1),
                 "Ben-Or saw both 0 and 1 in phase 2 of round " << round_);
  const Estimate v = has0 ? Estimate::Zero
                          : (has1 ? Estimate::One : Estimate::Bot);

  if (is_binary(v) && !has_bot) {
    decide(v);
  } else if (is_binary(v) && has_bot) {
    est1_ = v;
    enter_round();
  } else {
    ++stats_.coin_flips;
    est1_ = estimate_from_bit(coin_.flip_counted());
    enter_round();
  }
}

void BenOrProcess::decide(Estimate v) {
  if (decided()) return;
  HYCO_CHECK_MSG(is_binary(v), "cannot decide ⊥");
  net_.broadcast(self_, Message::decide_msg(v));
  decision_ = v;
  decision_round_ = round_;
}

}  // namespace hyco
