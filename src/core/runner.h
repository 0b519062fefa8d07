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

#include "baseline/mm_domain.h"
#include "core/cluster_layout.h"
#include "core/consensus_process.h"
#include "core/types.h"
#include "core/world.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
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
  Mm,                ///< the m&m comparator (Section III-C; needs a domain)
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
  /// An m&m run on `d`: its layout is the singletons of d.n(), so memory
  /// i is p_i's and a scenario's cluster ids are process ids.
  explicit RunConfig(MmDomain d)
      : layout(ClusterLayout::singletons(d.n())),
        alg(Algorithm::Mm),
        mm_domain(std::move(d)) {}

  ClusterLayout layout;
  Algorithm alg = Algorithm::HybridLocalCoin;
  /// The m&m memory domain; set exactly when alg is Algorithm::Mm.
  std::optional<MmDomain> mm_domain;

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

  /// Common-coin imperfection (Algorithm 3 only): probability that a round's
  /// coin is adversary-chosen (it then reads kAdversaryBit). 0 = perfect
  /// coin.
  double coin_epsilon = 0.0;

  /// Event tracing: with enable_trace, the run records into the caller-
  /// owned trace_sink, which keeps the records for export
  /// (src/obs/trace_export.h). enable_trace without a sink is a
  /// ContractViolation (a run keeps no ring of its own).
  bool enable_trace = false;
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
class PhaseTimings;
class RunObserver;
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
/// The run is its network's receiver: each same-tick run of deliveries
/// goes straight into its processes through their concrete types
/// (ProcessBase for Algorithms 2 and 3, BenOrProcess for Ben-Or and m&m).
///
/// Not copyable or movable: scheduled closures capture `this`.
class ConsensusRun final : private SimNetwork::Receiver {
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
  /// Starts p unless it already started; returns whether it did. A start
  /// that decides stamps last_decision_time, as a deciding delivery does.
  bool start_once(ProcId p);

  /// SimNetwork::Receiver: hands a run's live deliveries to the processes
  /// as `Proc` (deliver_as), and stamps last_decision_time when one of
  /// them made its process decide.
  void receive(const TickItem* items, std::size_t count) override;
  template <class Proc>
  void deliver_as(const TickItem* items, std::size_t count);

  RunConfig cfg_;
  std::vector<Estimate> inputs_;
  Trace* trace_;  ///< the caller's ring being recorded into; null untraced
  World world_;
  std::unique_ptr<InvariantChecker> checker_;
  std::vector<std::unique_ptr<ClusterMemory>> memories_;
  std::unique_ptr<ICommonCoin> common_coin_;
  std::vector<std::unique_ptr<IConsensusProcess>> procs_;
  std::unique_ptr<obs::PhaseTimings> timings_;
  std::unique_ptr<obs::RunObserver> observer_;
  std::vector<char> started_;
  RunResult result_;
  bool stopped_ = false;
  bool finished_ = false;
};

/// Builds and runs one simulation (ConsensusRun ticked to completion).
RunResult run_consensus(const RunConfig& cfg);

/// The cluster memories of a run of `alg`: one MEM_x per cluster of
/// `layout` for the hybrid algorithms and m&m (whose singleton clusters
/// make memory i p_i's), none for Ben-Or.
std::vector<std::unique_ptr<ClusterMemory>> make_cluster_memories(
    Algorithm alg, const ClusterLayout& layout);

/// Builds process p of `alg`. Both hosts, ConsensusRun and run_threaded
/// (src/runtime/), build their processes here. `memories` comes from
/// make_cluster_memories; `mm_domain` is m&m's domain (unused otherwise);
/// `coin` is Algorithm 3's common coin (unused otherwise); `seed` derives
/// p's local-coin stream; `checker` may be nullptr.
std::unique_ptr<IConsensusProcess> make_consensus_process(
    Algorithm alg, ProcId p, const ClusterLayout& layout, INetwork& net,
    const std::vector<std::unique_ptr<ClusterMemory>>& memories,
    const MmDomain* mm_domain, ICommonCoin* coin, std::uint64_t seed,
    InvariantChecker* checker, Round max_rounds);

/// The decision harvest run_consensus and run_threaded share: fills r's
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
