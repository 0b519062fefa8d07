// Common plumbing of the round-based consensus processes: message routing,
// buffering of early messages (asynchrony lets senders run ahead), DECIDE
// gossip, decision bookkeeping, and a max-round parking brake used by
// experiment harnesses (randomized termination is probability-1, not
// bounded).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/cluster_layout.h"
#include "core/consensus_process.h"
#include "core/invariant_checker.h"
#include "core/msg_exchange.h"
#include "core/types.h"
#include "net/network.h"

namespace hyco {

/// Event-driven skeleton of a round-based binary consensus process for the
/// hybrid model. Concrete algorithms (Algorithms 2 and 3) implement
/// enter_round() and on_exchange_progress().
class ProcessBase : public IConsensusProcess {
 public:
  /// `checker` may be nullptr (no invariant recording). `max_rounds` parks
  /// the process (stops advancing, still accepts DECIDE) when exceeded.
  ProcessBase(ProcId self, const ClusterLayout& layout, INetwork& net,
              InvariantChecker* checker, Round max_rounds);

  ProcessBase(const ProcessBase&) = delete;
  ProcessBase& operator=(const ProcessBase&) = delete;

  /// The paper's propose(v): records the proposal and enters round 1.
  /// Returns whether this call made the process decide.
  bool start(Estimate proposal) override;

  /// Runtime delivery hook for every message addressed to this process.
  /// Returns whether this message made the process decide. Most of an
  /// all-to-all wave changes nothing here — it reaches a process that has
  /// decided, or one whose exchange has moved past the message's (round,
  /// phase) — so those early-outs are checked inline, and a host that
  /// calls through the concrete type pays no call for them; the rest is
  /// handle_message().
  bool on_message(ProcId from, const Message& m) final {
    if (decided()) {
      // A decided process has returned from propose(); only scenario
      // assist answers stale traffic (handle_message).
      if (!assist_ || m.kind == MsgKind::Decide) return false;
    } else if (m.kind != MsgKind::Decide && !assist_ && started_ &&
               exch_.active() &&
               std::pair{m.round, m.phase} <
                   std::pair{exch_.round(), exch_.phase()}) {
      // A PHASE message of an exchange this process has passed: never
      // buffered, never credited.
      return false;
    }
    return handle_message(from, m);
  }

  /// Crash-recovery rejoin: retransmits the active exchange's PHASE message
  /// (or re-gossips DECIDE when already decided). Peers answer with decide
  /// or catch-up replies (scenario assist), letting this process replay the
  /// history it missed and climb back to the frontier.
  void on_recover() override;

  /// Forgets the once-per-(peer, round, phase) reply bookkeeping for a
  /// rejoined peer — its copies may have been dropped while it was down,
  /// so catch-up replies to it must be allowed again. Each recovery resets
  /// the guard once, keeping total reply traffic bounded. Clears the
  /// peer's bit in every slot; allocates nothing.
  void on_peer_recover(ProcId peer) override;

  void set_scenario_assist(bool on) override { assist_ = on; }

  void set_observer(obs::RunObserver* o) override { obs_ = o; }

  [[nodiscard]] bool decided() const final { return decision_.has_value(); }
  [[nodiscard]] std::optional<Estimate> decision() const override {
    return decision_;
  }
  [[nodiscard]] Round decision_round() const override {
    return decision_round_;
  }
  [[nodiscard]] Round current_round() const override { return round_; }
  [[nodiscard]] bool parked() const override { return parked_; }
  [[nodiscard]] const ProcessStats& stats() const override { return stats_; }
  [[nodiscard]] ProcId id() const { return self_; }

 protected:
  /// Advances to the next round: run the round's first cluster consensus,
  /// begin the exchange. Implementations must honor the max-round brake via
  /// maybe_park().
  virtual void enter_round() = 0;

  /// Called whenever the active exchange may have progressed (a message was
  /// credited, or a new exchange just began with a non-empty backlog).
  /// Implementations loop while the wait predicate holds.
  virtual void on_exchange_progress() = 0;

  /// Starts msg_exchange(r, ph, est) and replays buffered messages for
  /// (r, ph). Under scenario assist it first records est in the exchange
  /// slot of (r, ph), growing the slots when this is a new round.
  void begin_exchange(Round r, Phase ph, Estimate est);

  /// Decides v: notifies the checker, broadcasts DECIDE(v) (lines 12/17 of
  /// Algorithm 2), and marks this process decided.
  void decide(Estimate v);

  /// Returns true (and parks) if the next round would exceed max_rounds,
  /// or if this process crashed (halt_if_crashed).
  bool maybe_park();

  /// A process that crashed inside one of its own broadcasts takes no
  /// further step: returns true (and parks) when the network reports this
  /// process down. Call it before any proposal to a shared object.
  bool halt_if_crashed();

  ProcId self_;
  const ClusterLayout& layout_;
  INetwork& net_;
  InvariantChecker* checker_;
  Round max_rounds_;
  MsgExchange exch_;
  Round round_ = 0;
  Estimate proposal_ = Estimate::Bot;  ///< the value passed to start()
  ProcessStats stats_;
  obs::RunObserver* obs_ = nullptr;  ///< optional, not owned

 private:
  /// A PHASE message for an (r, ph) this process has not begun.
  struct EarlyPhase {
    Round round;
    ProcId from;
    Phase phase;
    Estimate est;
  };

  /// sent_'s "no message in this slot" mark (⊥ is a valid estimate).
  static constexpr auto kNotSent = static_cast<Estimate>(0xFF);

  /// on_message past its inline early-outs.
  bool handle_message(ProcId from, const Message& m);

  /// Scenario assist: answer a PHASE message from `from` by retransmitting
  /// this process's own message of that (round, phase), if it ever sent
  /// one — at most once per (peer, round, phase), so the extra traffic is
  /// bounded and two processes can never bounce replies forever.
  void maybe_catchup_reply(ProcId from, const Message& m);

  /// Words of answered_ per slot: one bit per process.
  [[nodiscard]] std::size_t peer_words() const {
    return (static_cast<std::size_t>(layout_.n()) + 63) / 64;
  }

  /// Early PHASE messages in arrival order; begin_exchange replays and
  /// erases those of the (r, ph) it begins.
  std::vector<EarlyPhase> backlog_;
  std::optional<Estimate> decision_;
  Round decision_round_ = 0;
  bool parked_ = false;
  bool started_ = false;
  bool assist_ = false;
  /// Scenario assist's catch-up record, indexed by exchange slot (only
  /// begin_exchange grows it, and only while assist is on): sent_[s] is
  /// what this process broadcast in slot s (kNotSent until it begins
  /// there), and bit q of answered_'s peer_words() words for slot s marks
  /// peer q as answered.
  std::vector<Estimate> sent_;
  std::vector<std::uint64_t> answered_;
};

}  // namespace hyco
