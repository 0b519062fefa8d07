#include "core/process_base.h"

#include <utility>

#include "obs/observer.h"
#include "util/assert.h"
#include "util/log.h"

namespace hyco {

ProcessBase::ProcessBase(ProcId self, const ClusterLayout& layout,
                         INetwork& net, InvariantChecker* checker,
                         Round max_rounds)
    : self_(self),
      layout_(layout),
      net_(net),
      checker_(checker),
      max_rounds_(max_rounds),
      exch_(layout, net, self) {
  HYCO_CHECK_MSG(self >= 0 && self < layout.n(), "bad process id " << self);
  HYCO_CHECK_MSG(max_rounds >= 1, "max_rounds must be >= 1");
}

bool ProcessBase::start(Estimate proposal) {
  HYCO_CHECK_MSG(!started_, "start() called twice on p" << self_);
  HYCO_CHECK_MSG(is_binary(proposal), "proposals must be 0 or 1");
  started_ = true;
  proposal_ = proposal;
  // A DECIDE delivered before start() already decided this process: it
  // has returned from propose(), so it enters no round.
  if (decided()) return false;
  enter_round();
  // Early messages may already satisfy the first wait (e.g. n == 1), and
  // a skewed start may find its whole deciding quorum in the backlog.
  on_exchange_progress();
  return decided();
}

bool ProcessBase::handle_message(ProcId from, const Message& m) {
  if (decided()) {
    // A decided process has returned from propose(). Under scenarios
    // (recovery, loss) the sender may have missed the DECIDE broadcast;
    // when scenario assist is on, answer stale traffic with a targeted
    // DECIDE. PHASE messages only come from undecided processes, so each
    // sender triggers finitely many replies.
    if (assist_ && m.kind != MsgKind::Decide) {
      net_.send(self_, from, Message::decide_msg(*decision_));
    }
    return false;
  }

  if (m.kind == MsgKind::Decide) {
    // Algorithm 2 line 17 / Algorithm 3 line 13: forward, then return.
    decide(m.est);
    return true;
  }

  // PHASE message: buffer it if its (r, ph) is still ahead of this process
  // (begin_exchange replays it), feed it to the active exchange if it
  // matches, and — under scenario assist — answer with our own message of
  // that (round, phase) in case the sender missed the original (the reply
  // happens before crediting, so a decision made by the credit cannot
  // swallow it; deciding broadcasts DECIDE anyway). A message for an
  // (r, ph) this process has already begun is never replayed: each (r, ph)
  // begins at most once.
  const bool ahead =
      exch_.active() && std::pair{m.round, m.phase} >
                            std::pair{exch_.round(), exch_.phase()};
  if (!started_ || ahead) {
    backlog_.push_back({m.round, from, m.phase, m.est});
  }
  if (assist_ && !parked_ && started_) maybe_catchup_reply(from, m);
  if (!parked_ && started_ && exch_.active() && m.round == exch_.round() &&
      m.phase == exch_.phase()) {
    ++stats_.phase_msgs_handled;
    const bool was_satisfied = obs_ != nullptr && exch_.satisfied();
    exch_.credit(from, m.est);
    if (obs_ != nullptr && !was_satisfied && exch_.satisfied()) {
      obs_->on_quorum_satisfied(self_, exch_.round(), exch_.phase());
    }
    on_exchange_progress();
  }
  return decided();
}

void ProcessBase::maybe_catchup_reply(ProcId from, const Message& m) {
  // The sender is exchanging in a (round, phase) this process has already
  // begun — under crash-recovery or loss it may have missed this process's
  // broadcast of that phase. Retransmit it to the sender (crediting is
  // idempotent). The once-per-(peer, round, phase) guard bounds the extra
  // traffic to one unicast per peer per phase and keeps two processes from
  // bouncing replies forever. A slot not begun here has no message to
  // resend, however far ahead its round.
  const std::size_t s = exchange_slot(m.round, m.phase);
  if (s >= sent_.size() || sent_[s] == kNotSent) return;
  const auto q = static_cast<std::size_t>(from);
  std::uint64_t& word = answered_[s * peer_words() + q / 64];
  const std::uint64_t bit = std::uint64_t{1} << (q % 64);
  if ((word & bit) != 0) return;
  word |= bit;
  net_.send(self_, from, Message::phase_msg(m.round, m.phase, sent_[s]));
}

void ProcessBase::on_peer_recover(ProcId peer) {
  const std::size_t words = peer_words();
  const auto q = static_cast<std::size_t>(peer);
  const std::uint64_t keep = ~(std::uint64_t{1} << (q % 64));
  for (std::size_t w = q / 64; w < answered_.size(); w += words) {
    answered_[w] &= keep;
  }
}

void ProcessBase::on_recover() {
  if (!started_ || parked_) return;
  if (decided()) {
    // Re-gossip the decision: the original DECIDE broadcast may have been
    // dropped while peers were down.
    net_.broadcast(self_, Message::decide_msg(*decision_));
    return;
  }
  if (exch_.active()) {
    // Retransmit the active PHASE message. Peers still in this (r, ph)
    // re-credit idempotently; decided peers answer with DECIDE when decide
    // replies are enabled, pulling this process back in.
    exch_.retransmit();
  }
}

void ProcessBase::begin_exchange(Round r, Phase ph, Estimate est) {
  if (obs_ != nullptr) obs_->on_phase_begin(self_, r, ph);
  if (assist_) {
    // Slots grow only here, for the rounds this process enters: a
    // received round sizes nothing.
    const std::size_t s = exchange_slot(r, ph);
    if (s >= sent_.size()) {
      if (sent_.capacity() == 0) {
        sent_.reserve(kFirstExchangeSlots);
        answered_.reserve(kFirstExchangeSlots * peer_words());
      }
      sent_.resize(s + 1, kNotSent);
      answered_.resize((s + 1) * peer_words(), 0);
    }
    sent_[s] = est;
  }
  exch_.begin(r, ph, est);
  // Replay (r, ph)'s early messages in arrival order, keeping the rest in
  // place and in order.
  bool replayed = false;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < backlog_.size(); ++i) {
    const EarlyPhase e = backlog_[i];
    if (e.round == r && e.phase == ph) {
      ++stats_.phase_msgs_handled;
      exch_.credit(e.from, e.est);
      replayed = true;
    } else {
      backlog_[kept++] = e;
    }
  }
  backlog_.resize(kept);
  // Backlogged credits may satisfy the quorum before any live message
  // arrives; report the milestone exactly once, here.
  if (replayed && obs_ != nullptr && exch_.satisfied()) {
    obs_->on_quorum_satisfied(self_, r, ph);
  }
}

void ProcessBase::decide(Estimate v) {
  if (decided()) return;
  HYCO_CHECK_MSG(is_binary(v), "cannot decide ⊥");
  if (checker_ != nullptr) checker_->on_decide(self_, round_, v);
  if (obs_ != nullptr) obs_->on_decide(self_, round_);
  HYCO_DEBUG("p" << self_ << " decides " << v << " at round " << round_);
  net_.broadcast(self_, Message::decide_msg(v));
  decision_ = v;
  decision_round_ = round_;
}

bool ProcessBase::maybe_park() {
  if (round_ >= max_rounds_) {
    parked_ = true;
    HYCO_DEBUG("p" << self_ << " parked at round cap " << max_rounds_);
    return true;
  }
  return halt_if_crashed();
}

bool ProcessBase::halt_if_crashed() {
  if (!net_.crashed(self_)) return false;
  parked_ = true;
  HYCO_DEBUG("p" << self_ << " crashed mid-broadcast; halts at round "
                 << round_);
  return true;
}

}  // namespace hyco
