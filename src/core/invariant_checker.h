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

#include <map>
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
  void violate(const std::string& what);
  void check_cluster_consistent(const char* tag, ProcId p, Round r,
                                Estimate v,
                                std::map<std::pair<Round, ClusterId>, Estimate>& seen);

  const ClusterLayout& layout_;
  std::vector<Estimate> inputs_;

  std::map<std::pair<Round, ClusterId>, Estimate> est1_by_cluster_;
  std::map<std::pair<Round, ClusterId>, Estimate> est2_by_cluster_;
  std::map<Round, Estimate> est2_nonbot_;       // WA1 witness per round
  std::map<Round, ProcId> rec_singleton_value_;  // some p with rec={v}
  std::map<Round, ProcId> rec_singleton_bot_;    // some p with rec={⊥}
  std::optional<Estimate> decided_;
  std::vector<std::string> violations_;
};

}  // namespace hyco
