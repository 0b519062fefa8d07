// Online checker for the correctness properties the paper proves:
//
//  * Cluster consistency — after CONS_x[r,1], all members of a cluster hold
//    the same est1 (and likewise est2 after CONS_x[r,2]).
//  * WA1 (Section III-B): (est2_i ≠ ⊥) ∧ (est2_j ≠ ⊥) ⇒ est2_i = est2_j.
//  * WA2: rec_i = {v} and rec_j = {⊥} are mutually exclusive in a round,
//    and no rec set ever contains both binary values.
//  * Agreement — no two processes decide different values.
//  * Validity — the decided value was proposed by some process.
//
// Every simulation run in tests and benches installs a checker; a run is
// only "correct" if the checker ends with zero violations.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster_layout.h"
#include "core/types.h"

namespace hyco {

/// Collects protocol events and records any property violation as a
/// human-readable string. Thread-compatible (used single-threaded).
class InvariantChecker {
 public:
  explicit InvariantChecker(const ClusterLayout& layout);

  /// Proposed inputs, indexed by process; enables the validity check.
  void set_inputs(const std::vector<Estimate>& inputs);

  /// p's est1 value right after CONS_x[r,1] (must match cluster-mates).
  void on_est1(ProcId p, Round r, Estimate v);

  /// p's est2 value right after CONS_x[r,2] (cluster consistency + WA1).
  void on_est2(ProcId p, Round r, Estimate v);

  /// p's rec set at the end of phase 2 of round r (WA2).
  void on_rec(ProcId p, Round r, EstimateSet rec);

  /// p decided v in round r (agreement + validity).
  void on_decide(ProcId p, Round r, Estimate v);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }

  /// First decided value, if any process decided.
  [[nodiscard]] std::optional<Estimate> decided_value() const {
    return decided_;
  }

 private:
  /// "Nothing reported yet" in the records below (⊥ is a reportable est2).
  static constexpr auto kUnset = static_cast<Estimate>(0xFF);
  static constexpr ProcId kNoProc = -1;
  /// Rounds the first growth of a record vector makes room for; later
  /// growth doubles.
  static constexpr std::size_t kFirstRounds = 8;

  /// What one cluster agreed in one round: est1 after CONS_x[r,1], est2
  /// after CONS_x[r,2].
  struct ClusterRound {
    Estimate est1 = kUnset;
    Estimate est2 = kUnset;
  };
  /// One round's WA1 witness (its first non-⊥ est2) and WA2 witnesses
  /// (the first processes whose rec was {v}, resp. {⊥}).
  struct RoundRecord {
    Estimate est2_nonbot = kUnset;
    ProcId rec_value = kNoProc;
    ProcId rec_bot = kNoProc;
  };

  void violate(const std::string& what);
  void check_cluster_consistent(const char* tag, ProcId p, Round r,
                                Estimate v, Estimate& agreed);
  /// The record of p's cluster in round r, growing the vector on a new
  /// round.
  ClusterRound& cluster_round(ProcId p, Round r);
  /// The record of round r, growing the vector on a new round.
  RoundRecord& round_record(Round r);

  const ClusterLayout& layout_;
  std::vector<Estimate> inputs_;

  std::vector<ClusterRound> by_cluster_;  ///< cluster x, round r at (r−1)·m + x
  std::vector<RoundRecord> by_round_;     ///< round r at r − 1
  std::optional<Estimate> decided_;
  std::vector<std::string> violations_;
};

}  // namespace hyco
