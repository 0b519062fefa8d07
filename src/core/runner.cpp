#include "core/runner.h"

#include <algorithm>
#include <sstream>

#include "baseline/ben_or.h"
#include "coin/coin.h"
#include "core/common_coin_process.h"
#include "core/invariant_checker.h"
#include "core/local_coin_process.h"
#include "core/process_base.h"
#include "obs/observer.h"
#include "obs/phase_timings.h"
#include "shm/cluster_memory.h"
#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {

namespace {
/// Event budget of one run: a backstop far above any terminating run.
constexpr std::uint64_t kMaxEvents = 200'000'000;

/// Whether `layout` is the singletons of n, cluster p holding process p.
bool is_singletons(const ClusterLayout& layout, ProcId n) {
  if (layout.n() != n) return false;
  for (ProcId p = 0; p < n; ++p) {
    if (layout.cluster_of(p) != p) return false;
  }
  return true;
}
}  // namespace

const char* to_cstring(Algorithm a) {
  switch (a) {
    case Algorithm::HybridLocalCoin: return "hybrid-LC";
    case Algorithm::HybridCommonCoin: return "hybrid-CC";
    case Algorithm::BenOr: return "ben-or";
    case Algorithm::Mm: return "m&m";
  }
  return "?";
}

std::vector<Estimate> split_inputs(ProcId n) {
  std::vector<Estimate> in(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    in[static_cast<std::size_t>(p)] = estimate_from_bit(p % 2);
  }
  return in;
}

std::vector<Estimate> uniform_inputs(ProcId n, Estimate v) {
  HYCO_CHECK(is_binary(v));
  return std::vector<Estimate>(static_cast<std::size_t>(n), v);
}

ConsensusRun::ConsensusRun(RunConfig cfg)
    : cfg_(std::move(cfg)),
      inputs_(cfg_.inputs.empty() ? split_inputs(cfg_.layout.n())
                                  : cfg_.inputs),
      // With tracing off the network gets no trace at all, so call sites
      // skip even building the records.
      trace_(trace_ring(cfg_.enable_trace, cfg_.trace_sink)),
      world_(cfg_.layout.n(), cfg_.seed, cfg_.crashes,
             cfg_.delay_factory ? cfg_.delay_factory()
                                : make_delay_model(cfg_.delays),
             trace_, cfg_.scenario, &cfg_.layout) {
  const ProcId n = cfg_.layout.n();
  HYCO_CHECK_MSG(inputs_.size() == static_cast<std::size_t>(n),
                 "inputs size " << inputs_.size() << " != n " << n);
  HYCO_CHECK_MSG(cfg_.mm_domain.has_value() == (cfg_.alg == Algorithm::Mm),
                 "an m&m memory domain goes with Algorithm::Mm only, and "
                 "Algorithm::Mm needs one");
  HYCO_CHECK_MSG(!cfg_.mm_domain ||
                     is_singletons(cfg_.layout, cfg_.mm_domain->n()),
                 "an m&m run's layout must be the singletons of its domain's "
                 "n, got " << cfg_.layout.to_string());
  SimNetwork& net = world_.net();

  checker_ = std::make_unique<InvariantChecker>(cfg_.layout);
  checker_->set_inputs(inputs_);

  memories_ = make_cluster_memories(cfg_.alg, cfg_.layout);

  // The common coin (Algorithm 3). BiasedCommonCoin models an imperfect
  // coin for the T-ADV ablation.
  if (cfg_.alg == Algorithm::HybridCommonCoin) {
    common_coin_ = make_common_coin(cfg_.seed, cfg_.coin_epsilon);
  }

  procs_.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    procs_.push_back(make_consensus_process(
        cfg_.alg, p, cfg_.layout, net, memories_,
        cfg_.mm_domain ? &*cfg_.mm_domain : nullptr, common_coin_.get(),
        cfg_.seed, checker_.get(), cfg_.max_rounds));
  }

  // Per-phase latency timings (opt-in) and the trace's phase records share
  // one observer. It reads sim.now() but never mutates simulation state,
  // so instrumented runs are byte-identical.
  const auto now = [this] { return world_.sim().now(); };
  if (cfg_.collect_obs) {
    timings_ = std::make_unique<obs::PhaseTimings>(n, now);
  }
  if (timings_ != nullptr || trace_ != nullptr) {
    observer_ =
        std::make_unique<obs::RunObserver>(timings_.get(), trace_, now);
    for (auto& proc : procs_) proc->set_observer(observer_.get());
  }

  net.set_receiver(*this);

  world_.schedule_crashes();

  // Crash-recovery cycles (scenario). A process that was down at its start
  // time proposes on rejoin instead; `started_` guards the double-start.
  started_.assign(static_cast<std::size_t>(n), 0);
  world_.schedule_rejoins([this](ProcId p) {
    // Announce the rejoin first: replies peers sent into the down window
    // were lost, so their per-peer reply guards must reset before the
    // rejoiner's retransmit reaches them.
    for (auto& proc : procs_) proc->on_peer_recover(p);
    if (!start_once(p)) procs_[static_cast<std::size_t>(p)]->on_recover();
  });

  // Decide-reply and catch-up gossip keep scenario runs live (see
  // RunConfig::scenario).
  if (world_.scenario() != nullptr) {
    for (auto& proc : procs_) proc->set_scenario_assist(true);
  }

  // Every live process invokes propose(v_p) at its own start time.
  world_.schedule_starts(kStartJitter, [this](ProcId p) { start_once(p); });
}

bool ConsensusRun::start_once(ProcId p) {
  const auto idx = static_cast<std::size_t>(p);
  if (started_[idx] != 0) return false;
  started_[idx] = 1;
  if (procs_[idx]->start(inputs_[idx])) {
    result_.last_decision_time = world_.sim().now();
  }
  return true;
}

void ConsensusRun::receive(const TickItem* items, std::size_t count) {
  // make_consensus_process builds a BenOrProcess for Ben-Or and m&m and a
  // ProcessBase for Algorithms 2 and 3.
  if (cfg_.alg == Algorithm::BenOr || cfg_.alg == Algorithm::Mm) {
    deliver_as<BenOrProcess>(items, count);
  } else {
    deliver_as<ProcessBase>(items, count);
  }
}

template <class Proc>
void ConsensusRun::deliver_as(const TickItem* items, std::size_t count) {
  bool decided = false;
  world_.net().for_each_live(
      items, count, [&](ProcId to, ProcId from, const Message& m) {
        decided |= static_cast<Proc&>(*procs_[static_cast<std::size_t>(to)])
                       .on_message(from, m);
      });
  // The whole run shares one tick.
  if (decided) result_.last_decision_time = world_.sim().now();
}

ConsensusRun::~ConsensusRun() = default;

bool ConsensusRun::tick() {
  HYCO_CHECK_MSG(!stopped_, "tick() after the run stopped");
  const std::optional<StopReason> stop =
      world_.sim().run_tick(kMaxEvents);
  if (!stop) return false;
  result_.stop = *stop;
  stopped_ = true;
  return true;
}

RunResult ConsensusRun::finish() {
  HYCO_CHECK_MSG(stopped_, "finish() before the run stopped");
  HYCO_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;

  const Simulator& sim = world_.sim();
  result_.end_time = sim.now();
  result_.events = sim.events_executed();
  result_.crashed = world_.tracker().crashed_count();
  result_.recovered = world_.tracker().recovered_count();
  harvest_decisions(procs_, inputs_, world_.tracker(), result_);

  if (!checker_->ok()) {
    result_.invariants_ok = false;
    for (const auto& v : checker_->violations()) {
      result_.violations.push_back(v);
    }
  }

  for (const auto& mem : memories_) {
    result_.shm += mem->counts();
    result_.consensus_objects += mem->objects_created();
  }
  result_.net = world_.net().stats();

  // Message-class counters are free (already tallied by the network and the
  // processes); phase timings only exist under collect_obs.
  result_.obs[obs::ObsId::kDelivered] = result_.net.delivered;
  result_.obs[obs::ObsId::kDroppedPartitioned] =
      result_.net.dropped_partitioned;
  result_.obs[obs::ObsId::kDroppedLost] = result_.net.dropped_lost;
  result_.obs[obs::ObsId::kDuplicated] = result_.net.duplicated;
  result_.obs[obs::ObsId::kHeldPartitioned] = result_.net.held_partitioned;
  std::uint64_t coin_flips = 0;
  for (const ProcessStats& ps : result_.proc_stats) {
    coin_flips += ps.coin_flips;
  }
  result_.obs[obs::ObsId::kCoinFlips] = coin_flips;
  result_.obs[obs::ObsId::kRounds] =
      static_cast<std::uint64_t>(result_.max_decision_round);
  if (timings_ != nullptr) timings_->fill(result_.obs);
  return std::move(result_);
}

RunResult run_consensus(const RunConfig& cfg) {
  ConsensusRun run(cfg);
  while (!run.tick()) {
  }
  return run.finish();
}

std::vector<std::unique_ptr<ClusterMemory>> make_cluster_memories(
    Algorithm alg, const ClusterLayout& layout) {
  std::vector<std::unique_ptr<ClusterMemory>> memories;
  if (alg == Algorithm::BenOr) return memories;
  memories.reserve(static_cast<std::size_t>(layout.m()));
  for (ClusterId x = 0; x < layout.m(); ++x) {
    memories.push_back(std::make_unique<ClusterMemory>(x, layout.n()));
  }
  return memories;
}

std::unique_ptr<IConsensusProcess> make_consensus_process(
    Algorithm alg, ProcId p, const ClusterLayout& layout, INetwork& net,
    const std::vector<std::unique_ptr<ClusterMemory>>& memories,
    const MmDomain* mm_domain, ICommonCoin* coin, std::uint64_t seed,
    InvariantChecker* checker, Round max_rounds) {
  if (alg == Algorithm::Mm) {
    HYCO_CHECK_MSG(mm_domain != nullptr, "m&m needs its memory domain");
    return std::make_unique<BenOrProcess>(
        p, layout.n(), net,
        mix64(seed, 0x33A7 + static_cast<std::uint64_t>(p)), max_rounds,
        mm_domain, memories);
  }
  const std::uint64_t coin_seed =
      mix64(seed, 0x10CA1 + static_cast<std::uint64_t>(p));
  if (alg == Algorithm::BenOr) {
    return std::make_unique<BenOrProcess>(p, layout.n(), net, coin_seed,
                                          max_rounds);
  }
  ClusterMemory& mem =
      *memories.at(static_cast<std::size_t>(layout.cluster_of(p)));
  if (alg == Algorithm::HybridLocalCoin) {
    return std::make_unique<LocalCoinProcess>(p, layout, net, mem, coin_seed,
                                              checker, max_rounds);
  }
  HYCO_CHECK_MSG(coin != nullptr, "Algorithm 3 needs a common coin");
  return std::make_unique<CommonCoinProcess>(p, layout, net, mem, *coin,
                                             checker, max_rounds);
}

void harvest_decisions(
    const std::vector<std::unique_ptr<IConsensusProcess>>& procs,
    const std::vector<Estimate>& inputs, const CrashTracker& tracker,
    RunResult& r) {
  const std::size_t n = procs.size();
  r.decisions.assign(n, std::nullopt);
  r.decision_rounds.assign(n, 0);
  r.proc_stats.reserve(n);
  bool all_correct_decided = true;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const IConsensusProcess& proc = *procs[idx];
    r.proc_stats.push_back(proc.stats());
    r.max_round = std::max(r.max_round, proc.current_round());
    if (proc.decided()) {
      r.decisions[idx] = proc.decision();
      r.decision_rounds[idx] = proc.decision_round();
      r.max_decision_round =
          std::max(r.max_decision_round, proc.decision_round());
      if (!r.decided_value.has_value()) {
        r.decided_value = proc.decision();
      } else if (*r.decided_value != *proc.decision()) {
        r.agreement_ok = false;
        std::ostringstream os;
        os << "AGREEMENT violated: p" << idx << " decided "
           << *proc.decision() << " vs earlier " << *r.decided_value;
        r.violations.push_back(os.str());
      }
    } else if (!tracker.is_crashed(static_cast<ProcId>(idx))) {
      all_correct_decided = false;
    }
  }
  r.all_correct_decided = all_correct_decided;

  if (r.decided_value.has_value() &&
      std::find(inputs.begin(), inputs.end(), *r.decided_value) ==
          inputs.end()) {
    r.validity_ok = false;
    r.violations.push_back(
        "VALIDITY violated: decided value was never proposed");
  }
}

}  // namespace hyco
