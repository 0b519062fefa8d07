// One-call simulation driver: builds the run's World (core/world.h), then
// the cluster memories, coins and processes for a configuration, runs to
// quiescence (or a limit), and returns decisions plus full instrumentation.
// Every test, example, and experiment harness goes through run_consensus(),
// a thin loop over ConsensusRun (construct → tick → finish).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster_layout.h"
#include "core/consensus_process.h"
#include "core/types.h"
#include "core/world.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "shm/consensus_object.h"
#include "shm/op_counts.h"
#include "sim/crash.h"
#include "sim/simulator.h"

namespace hyco {

class Trace;

/// Which consensus algorithm a run executes.
enum class Algorithm {
  HybridLocalCoin,   ///< the paper's Algorithm 2
  HybridCommonCoin,  ///< the paper's Algorithm 3
  BenOr,             ///< pure message-passing baseline (uses layout.n() only)
};

const char* to_cstring(Algorithm a);

/// Processes invoke propose() at an independent random time in
/// [0, kStartJitter] — asynchronous processes run at their own speed.
/// Without jitter the lowest-index member of every cluster always wins the
/// round-1 cluster consensus (a determinism artifact).
inline constexpr SimTime kStartJitter = 50;

/// Plain-data description of one simulation run.
struct RunConfig {
  explicit RunConfig(ClusterLayout l) : layout(std::move(l)) {}

  ClusterLayout layout;
  Algorithm alg = Algorithm::HybridLocalCoin;

  /// Proposals, one per process (binary). Empty = all processes propose 0/1
  /// alternating by index (a split input).
  std::vector<Estimate> inputs;

  std::uint64_t seed = 1;
  DelayConfig delays = DelayConfig::uniform(50, 150);

  /// Optional override: build a custom delay model (e.g. adversarial); when
  /// set, `delays` is ignored.
  std::function<std::unique_ptr<DelayModel>()> delay_factory;

  CrashPlan crashes;  ///< empty specs = nobody crashes

  /// Adversarial scenario (partitions, link faults, crash-recovery, coin
  /// attack). Empty = none; runs are then byte-identical to pre-scenario
  /// builds. When non-empty, scenario-assist gossip is enabled on every
  /// process (decided processes answer stale traffic with DECIDE, and
  /// undecided ones answer it by retransmitting their own message of that
  /// phase) so recovered or loss-starved processes can still terminate.
  ScenarioConfig scenario;

  Round max_rounds = 5000;          ///< parking brake for unlucky coin runs
  ConsensusImpl shm_impl = ConsensusImpl::Cas;

  /// Common-coin imperfection (Algorithm 3 only): probability that a round's
  /// coin is adversary-chosen (it then reads kAdversaryBit). 0 = perfect
  /// coin.
  double coin_epsilon = 0.0;

  bool enable_trace = false;

  /// When set (with enable_trace), events are recorded into this caller-
  /// owned ring instead of a run-local one — the caller keeps the structured
  /// records for export (src/obs/trace_export.h), and trace_dump stays
  /// empty.
  Trace* trace_sink = nullptr;

  /// Collect per-phase latency timings via an observer on each process.
  /// Observation is out of band: it never touches seeded RNG streams or
  /// algorithm state, so results are byte-identical either way. The
  /// message-class counters in RunResult::obs are filled regardless (they
  /// are free — copied from NetStats / ProcessStats after the run).
  bool collect_obs = false;
};

/// Everything observable about a finished run.
struct RunResult {
  std::vector<std::optional<Estimate>> decisions;  ///< per process
  std::vector<Round> decision_rounds;              ///< 0 if undecided
  std::vector<ProcessStats> proc_stats;

  std::optional<Estimate> decided_value;  ///< first decision, if any
  bool all_correct_decided = false;  ///< every never-crashed process decided
  bool agreement_ok = true;
  bool validity_ok = true;
  bool invariants_ok = true;  ///< WA1/WA2/cluster-consistency (hybrid runs)
  std::vector<std::string> violations;

  Round max_round = 0;                        ///< deepest round entered
  Round max_decision_round = 0;               ///< deepest deciding round
  SimTime last_decision_time = kSimTimeNever;
  SimTime end_time = 0;
  NetStats net;
  ShmOpCounts shm;                  ///< summed over all memories
  std::uint64_t consensus_objects = 0;  ///< objects materialized
  std::uint64_t events = 0;
  StopReason stop = StopReason::Quiescent;
  std::size_t crashed = 0;    ///< processes down at the end of the run
  std::size_t recovered = 0;  ///< crash-recovery rejoins executed
  /// The run-local ring rendered as text (enable_trace without trace_sink).
  std::string trace_dump;

  /// Observability sample: message-class counters always; phase timings
  /// only when cfg.collect_obs (zero otherwise).
  obs::ObsSample obs;

  /// all_correct_decided && agreement && validity && invariants.
  [[nodiscard]] bool success() const {
    return all_correct_decided && agreement_ok && validity_ok &&
           invariants_ok;
  }
  /// agreement && validity && invariants (termination not required —
  /// indulgence means safety must hold even when runs cannot finish).
  [[nodiscard]] bool safe() const {
    return agreement_ok && validity_ok && invariants_ok;
  }
};

namespace obs {
class ObserverFanout;
class PhaseTimings;
class TraceObserver;
}  // namespace obs

class ClusterMemory;
class ICommonCoin;
class InvariantChecker;

/// run_consensus() in three pieces: the constructor does every piece of
/// setup (the World, memories, coins, processes, scheduled
/// crashes/rejoins/starts), tick() advances the simulation by at most one
/// virtual-time tick, and finish() harvests the RunResult once tick()
/// reports the run stopped. The split lets a caller time set-up, the event
/// loop and the harvest apart (hyco_bench's traced mode reports them as
/// core.setup, sim.run and core.finish).
///
/// Not copyable or movable: scheduled closures capture `this`.
class ConsensusRun {
 public:
  explicit ConsensusRun(RunConfig cfg);
  ~ConsensusRun();
  ConsensusRun(const ConsensusRun&) = delete;
  ConsensusRun& operator=(const ConsensusRun&) = delete;

  /// Runs at most one virtual-time tick. Returns true when the run has
  /// stopped (quiescent or a limit) — do not call again after that.
  bool tick();

  /// Harvests and returns the result. Call exactly once, after tick()
  /// returned true.
  RunResult finish();

 private:
  /// Starts p unless it already started; returns whether it did.
  bool start_once(ProcId p);

  RunConfig cfg_;
  std::vector<Estimate> inputs_;
  /// Backs trace_dump when tracing is on without a caller's trace_sink.
  std::unique_ptr<Trace> local_trace_;
  Trace* trace_;  ///< the ring being recorded into; null when untraced
  World world_;
  std::unique_ptr<InvariantChecker> checker_;
  std::vector<std::unique_ptr<ClusterMemory>> memories_;
  std::unique_ptr<ICommonCoin> common_coin_;
  std::vector<std::unique_ptr<IConsensusProcess>> procs_;
  std::unique_ptr<obs::PhaseTimings> timings_;
  std::unique_ptr<obs::TraceObserver> trace_obs_;
  std::unique_ptr<obs::ObserverFanout> obs_fanout_;
  std::vector<char> started_;
  RunResult result_;
  bool stopped_ = false;
  bool finished_ = false;
};

/// Builds and runs one simulation (ConsensusRun ticked to completion).
RunResult run_consensus(const RunConfig& cfg);

/// The deliver hook run_consensus and run_mm share: hands each message to
/// its process and stamps r.last_decision_time when the delivery makes
/// that process decide.
SimNetwork::DeliverFn decision_timing_deliver(
    const std::vector<std::unique_ptr<IConsensusProcess>>& procs,
    const Simulator& sim, RunResult& r);

/// The decision harvest run_consensus and run_mm share: fills r's
/// per-process decisions, decision rounds and stats, its deepest rounds,
/// and its termination, agreement and validity verdicts (a decided value
/// must be one of `inputs`).
void harvest_decisions(
    const std::vector<std::unique_ptr<IConsensusProcess>>& procs,
    const std::vector<Estimate>& inputs, const CrashTracker& tracker,
    RunResult& r);

/// Helper: split input vector (process i proposes i % 2).
std::vector<Estimate> split_inputs(ProcId n);

/// Helper: every process proposes `v`.
std::vector<Estimate> uniform_inputs(ProcId n, Estimate v);

}  // namespace hyco
