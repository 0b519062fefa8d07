// Causal forensics over an exported trace ("hyco-trace/3"): rebuilds the
// happens-before DAG from the mid/parent ids sim/trace.h stamps on every
// record, and answers the questions a failing or slow seed raises —
//
//  * quorum_waits(): per (process, round, phase), how long from phase begin
//    to the k-th arrival that satisfied the quorum vs to the last arrival —
//    the gap is slack the algorithm never waited for;
//  * critical_path(): the latest-cause chain ending at a decision — the
//    alternating Deliver <- Send <- Deliver ... spine whose delays bound the
//    run's latency;
//  * provenance(): the backward slice from a Decide to the minimal message
//    set that supported it — which deliveries actually carried the decision
//    and which processes sent the phase-1 support.
//
// The graph is layout-agnostic: it works on records + meta alone, so both
// the JSONL and the binary reader feed it identically (pinned by test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/trace_export.h"
#include "sim/trace.h"

namespace hyco::obs {

class CausalGraph {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  static CausalGraph build(TraceMeta meta, std::vector<TraceRecord> records);

  [[nodiscard]] const TraceMeta& meta() const { return meta_; }
  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }

  /// Record index of the Send / consuming Deliver-or-Drop carrying `mid`.
  [[nodiscard]] std::size_t send_of(std::uint64_t mid) const;
  [[nodiscard]] std::size_t consume_of(std::uint64_t mid) const;

  /// Immediate causes of record `i`: the Deliver of its parent context, and
  /// (for a Deliver/Drop) the Send sharing its mid. Missing ends of edges
  /// (ring truncation) are silently absent.
  [[nodiscard]] std::vector<std::size_t> causes(std::size_t i) const;

  /// Transitive causes of `i`, including `i` itself, ascending by index.
  [[nodiscard]] std::vector<std::size_t> backward_slice(std::size_t i) const;

  /// The latest-cause spine ending at `i`, oldest record first: from a
  /// Deliver step to its Send, from anything else to its parent Deliver.
  /// Because the parent context of a quorum-crossing event is exactly the
  /// arrival that completed the quorum, this chain is the run's critical
  /// path into `i`.
  [[nodiscard]] std::vector<std::size_t> critical_path(std::size_t i) const;

  /// Indices of all Decide records, in trace order.
  [[nodiscard]] std::vector<std::size_t> decides() const;

  /// Per-(process, round, phase) quorum-wait breakdown, in phase-begin
  /// order. A window opens at PhaseStart and closes at the process's next
  /// PhaseStart or Decide (or the end of the trace).
  struct QuorumWait {
    ProcId proc = -1;
    Round round = -1;
    Phase phase = Phase::One;
    SimTime begin = 0;
    SimTime quorum = -1;        ///< Quorum record time; -1 = never satisfied
    SimTime last_arrival = -1;  ///< last matching PHASE delivery; -1 = none
    std::uint64_t arrivals_at_quorum = 0;  ///< deliveries up to the quorum
    std::uint64_t arrivals_total = 0;      ///< deliveries in the window
    bool satisfied = false;
    /// True when the window ran to the end of the trace without quorum or
    /// decision — a stalled phase (crashed peers, partition, or round cap).
    bool stalled = false;
  };
  [[nodiscard]] std::vector<QuorumWait> quorum_waits() const;

  /// Decision provenance: the backward slice from one Decide.
  struct Provenance {
    std::size_t decide_index = npos;
    ProcId proc = -1;
    Round round = -1;
    SimTime at = 0;
    std::vector<std::size_t> slice;    ///< full backward slice, ascending
    std::vector<std::size_t> support;  ///< Deliver records within the slice
    /// Senders of phase-1 PHASE deliveries of the deciding round found in
    /// the slice — the processes whose phase-1 broadcast this decision
    /// actually consumed.
    std::vector<ProcId> phase1_senders;
    /// Decided value recovered from the DECIDE traffic adjacent to the
    /// decide (the delivery that triggered it, or the broadcast it emits).
    std::optional<int> decided_est;
    /// False if a binary phase-2 estimate of the deciding round inside the
    /// slice contradicts decided_est.
    bool est_consistent = true;
  };
  [[nodiscard]] Provenance provenance(std::size_t decide_index) const;

 private:
  TraceMeta meta_;
  std::vector<TraceRecord> records_;
  std::unordered_map<std::uint64_t, std::size_t> mid_send_;
  std::unordered_map<std::uint64_t, std::size_t> mid_consume_;
};

}  // namespace hyco::obs
