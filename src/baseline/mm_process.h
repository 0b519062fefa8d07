// m&m-style randomized binary consensus — the comparator of Section III-C.
//
// This is a faithful-to-the-comparison analog of Algorithm 2 running on the
// m&m memory layout instead of clusters (it is NOT a line-by-line
// reimplementation of the PODC'18 algorithms; see DESIGN.md):
//   * per phase, process p_i proposes its estimate to the consensus object
//     of EVERY memory it can touch — its own plus its α_i neighbors'
//     (α_i + 1 invocations, the count the paper contrasts with the hybrid
//     model's single invocation);
//   * it adopts the winner of its OWN p_i-centered memory;
//   * the message exchange then counts distinct senders, like Ben-Or —
//     the m&m model has no cluster closure, so "one for all" is
//     unavailable: a crashed neighbor's support is simply lost.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "baseline/mm_domain.h"
#include "coin/coin.h"
#include "core/consensus_process.h"
#include "core/types.h"
#include "net/network.h"
#include "shm/cluster_memory.h"
#include "util/bitset.h"

namespace hyco {

/// The n per-process memories of an m&m domain. Memory i is the
/// "p_i-centered" memory shared by S_i = {i} ∪ N(i).
class MmMemories {
 public:
  explicit MmMemories(const MmDomain& domain);

  /// The consensus object CONS_i[r, ph] of p_i's memory.
  ClusterMemory::Cons cons(ProcId owner, Round r, Phase ph);

  [[nodiscard]] ShmOpCounts total() const;

 private:
  std::vector<std::unique_ptr<ClusterMemory>> memories_;
};

/// One m&m consensus process (local-coin variant).
class MmProcess final : public IConsensusProcess {
 public:
  MmProcess(ProcId self, const MmDomain& domain, MmMemories& memories,
            INetwork& net, std::uint64_t coin_seed, Round max_rounds);

  void start(Estimate proposal) override;
  void on_message(ProcId from, const Message& m) override;

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

 private:
  struct Tally {
    explicit Tally(ProcId n) : senders(static_cast<std::size_t>(n)) {}
    DynamicBitset senders;
    std::array<ProcId, 3> counts{0, 0, 0};
    [[nodiscard]] ProcId distinct() const {
      return static_cast<ProcId>(senders.count());
    }
  };

  Tally& tally(Round r, Phase ph);
  /// Proposes `v` to all α_i + 1 reachable memories; returns own winner.
  Estimate propose_to_domain(Round r, Phase ph, Estimate v);
  void enter_round();
  void progress();
  void complete_phase1();
  void complete_phase2();
  void decide(Estimate v);
  bool majority(ProcId k) const { return 2 * k > n_; }

  ProcId self_;
  ProcId n_;
  const MmDomain& domain_;
  MmMemories& memories_;
  INetwork& net_;
  LocalCoin coin_;
  Round max_rounds_;

  Round round_ = 0;
  Phase phase_ = Phase::One;
  Estimate est1_ = Estimate::Bot;
  Estimate est2_ = Estimate::Bot;
  bool started_ = false;
  bool parked_ = false;
  std::optional<Estimate> decision_;
  Round decision_round_ = 0;
  ProcessStats stats_;
  std::map<std::pair<Round, int>, Tally> tallies_;
};

}  // namespace hyco
