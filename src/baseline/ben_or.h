// Pure message-passing Ben-Or randomized binary consensus (PODC 1983) —
// the baseline the paper extends — and, given an m&m memory domain, the
// m&m comparator of Section III-C.
//
// This is an INDEPENDENT implementation (no cluster machinery, plain
// counting of distinct senders), as the paper describes for the m = n
// degenerate case of Algorithm 2: "the communication pattern can be
// simplified by replacing the sets supporters_i[a], supporters_i[b] by a
// simple counting of each value received during a phase". The test suite
// cross-validates hybrid(m = n) against this implementation; the T-FT
// experiment uses it to show that pure message passing cannot survive a
// majority of crashes while the hybrid model can.
//
// The m&m comparator is a faithful-to-the-comparison analog of Algorithm 2
// on the m&m memory layout (it is NOT a line-by-line reimplementation of
// the PODC'18 algorithms): before each phase's broadcast, p_i proposes its
// value to the consensus object of EVERY memory it can touch — its own
// p_i-centered memory plus its α_i neighbours' (α_i + 1 invocations, the
// count the paper contrasts with the hybrid model's single invocation) —
// and adopts the winner of its own. The message exchange still counts
// distinct senders: the m&m model has no cluster closure, so "one for
// all" is unavailable and a crashed neighbour's support is simply lost.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "coin/coin.h"
#include "core/consensus_process.h"
#include "core/types.h"
#include "net/network.h"

namespace hyco {

class ClusterMemory;
class MmDomain;

/// One Ben-Or process. Tolerates f < n/2 crashes; blocks otherwise
/// (expected, and exercised by the fault-tolerance experiment).
class BenOrProcess final : public IConsensusProcess {
 public:
  /// Without `domain`, plain Ben-Or. With it, the m&m comparator:
  /// `memories` are the domain's n memories, memory i being p_i's,
  /// shared by S_i = {i} ∪ N(i). Both must outlive the process.
  BenOrProcess(ProcId self, ProcId n, INetwork& net, std::uint64_t coin_seed,
               Round max_rounds, const MmDomain* domain = nullptr,
               std::span<const std::unique_ptr<ClusterMemory>> memories = {});

  bool start(Estimate proposal) override;
  /// A PHASE message's round must lie in [1, max_rounds] — a live peer
  /// parks at max_rounds and never sends a later one; any other round is
  /// a ContractViolation.
  bool on_message(ProcId from, const Message& m) override;

  /// Crash-recovery rejoin: retransmits the current (round, phase) message
  /// (peers dedup by sender) or re-gossips DECIDE. Scenario assist covers
  /// decide replies only — Ben-Or keeps no per-round sent history, so a
  /// rejoiner relies on a surviving majority deciding without it.
  void on_recover() override;

  void set_scenario_assist(bool on) override { assist_ = on; }

  [[nodiscard]] bool decided() const override {
    return decision_.has_value();
  }
  [[nodiscard]] std::optional<Estimate> decision() const override {
    return decision_;
  }
  [[nodiscard]] Round decision_round() const override {
    return decision_round_;
  }
  [[nodiscard]] Round current_round() const override { return round_; }
  [[nodiscard]] bool parked() const override { return parked_; }
  [[nodiscard]] const ProcessStats& stats() const override { return stats_; }

  [[nodiscard]] Estimate est1() const { return est1_; }

 private:
  /// Per-value counts of one (round, phase), indexed by estimate_index.
  using Counts = std::array<ProcId, 3>;

  /// The slot of (r, ph) for r in [1, max_rounds], grown into the storage
  /// when it is new: a received round sizes the slots too, since peers run
  /// ahead. The storage never grows past max_rounds' last slot.
  std::size_t slot(Round r, Phase ph);

  /// Words of senders_ per slot: one bit per process.
  [[nodiscard]] std::size_t sender_words() const {
    return (static_cast<std::size_t>(n_) + 63) / 64;
  }

  /// Distinct senders heard in slot s: each is counted under one value.
  [[nodiscard]] ProcId distinct(std::size_t s) const {
    const Counts& c = counts_[s];
    return c[0] + c[1] + c[2];
  }

  /// m&m: proposes `v` to the α_i + 1 reachable memories' CONS[round, ph],
  /// own memory first, and returns the own memory's winner. Plain Ben-Or
  /// returns `v`.
  Estimate propose_to_domain(Phase ph, Estimate v);
  void enter_round();
  void progress();
  void complete_phase1();
  void complete_phase2();
  void decide(Estimate v);
  bool majority(ProcId k) const { return 2 * k > n_; }

  ProcId self_;
  ProcId n_;
  INetwork& net_;
  LocalCoin coin_;
  Round max_rounds_;
  const MmDomain* domain_;
  std::span<const std::unique_ptr<ClusterMemory>> memories_;

  Round round_ = 0;
  Phase phase_ = Phase::One;
  Estimate est1_ = Estimate::Bot;
  Estimate est2_ = Estimate::Bot;
  bool started_ = false;
  bool parked_ = false;
  bool assist_ = false;
  std::optional<Estimate> decision_;
  Round decision_round_ = 0;
  ProcessStats stats_;

  /// Per (round, phase) tallies, indexed by exchange slot: counts_[s] and
  /// the sender_words() words of senders_ from s · sender_words(), bit q
  /// marking p_q as heard.
  std::vector<Counts> counts_;
  std::vector<std::uint64_t> senders_;
};

}  // namespace hyco
