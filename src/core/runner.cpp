#include "core/runner.h"

#include <algorithm>
#include <sstream>

#include "baseline/ben_or.h"
#include "coin/coin.h"
#include "core/common_coin_process.h"
#include "core/invariant_checker.h"
#include "core/local_coin_process.h"
#include "obs/observer.h"
#include "obs/phase_timings.h"
#include "obs/trace_observer.h"
#include "shm/cluster_memory.h"
#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {

namespace {
/// Event budget of one run: a backstop far above any terminating run.
constexpr std::uint64_t kMaxEvents = 200'000'000;
}  // namespace

const char* to_cstring(Algorithm a) {
  switch (a) {
    case Algorithm::HybridLocalCoin: return "hybrid-LC";
    case Algorithm::HybridCommonCoin: return "hybrid-CC";
    case Algorithm::BenOr: return "ben-or";
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
      // Record into the caller's ring when one is supplied (structured
      // export keeps the records); otherwise a run-local ring backs
      // trace_dump. With tracing off the network gets no trace at all, so
      // call sites skip even building the records.
      local_trace_(cfg_.enable_trace && cfg_.trace_sink == nullptr
                       ? std::make_unique<Trace>()
                       : nullptr),
      trace_(!cfg_.enable_trace           ? nullptr
             : cfg_.trace_sink != nullptr ? cfg_.trace_sink
                                          : local_trace_.get()),
      world_(cfg_.layout.n(), cfg_.seed, cfg_.crashes,
             cfg_.delay_factory ? cfg_.delay_factory()
                                : make_delay_model(cfg_.delays),
             trace_, cfg_.scenario, &cfg_.layout) {
  const ProcId n = cfg_.layout.n();
  HYCO_CHECK_MSG(inputs_.size() == static_cast<std::size_t>(n),
                 "inputs size " << inputs_.size() << " != n " << n);
  SimNetwork& net = world_.net();

  checker_ = std::make_unique<InvariantChecker>(cfg_.layout);
  checker_->set_inputs(inputs_);

  // Cluster memories (hybrid algorithms only touch their own cluster's).
  if (cfg_.alg != Algorithm::BenOr) {
    memories_.reserve(static_cast<std::size_t>(cfg_.layout.m()));
    for (ClusterId x = 0; x < cfg_.layout.m(); ++x) {
      memories_.push_back(
          std::make_unique<ClusterMemory>(x, n, cfg_.shm_impl));
    }
  }

  // The common coin (Algorithm 3). BiasedCommonCoin models an imperfect
  // coin for the T-ADV ablation.
  if (cfg_.alg == Algorithm::HybridCommonCoin) {
    const std::uint64_t coin_seed = mix64(cfg_.seed, 0xC01C01);
    if (cfg_.coin_epsilon > 0.0) {
      common_coin_ = std::make_unique<BiasedCommonCoin>(
          coin_seed, cfg_.coin_epsilon, kAdversaryBit);
    } else {
      common_coin_ = std::make_unique<CommonCoin>(coin_seed);
    }
  }

  procs_.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    const std::uint64_t coin_seed =
        mix64(cfg_.seed, 0x10CA1 + static_cast<std::uint64_t>(p));
    switch (cfg_.alg) {
      case Algorithm::HybridLocalCoin: {
        auto& mem = *memories_[static_cast<std::size_t>(
            cfg_.layout.cluster_of(p))];
        procs_.push_back(std::make_unique<LocalCoinProcess>(
            p, cfg_.layout, net, mem, coin_seed, checker_.get(),
            cfg_.max_rounds));
        break;
      }
      case Algorithm::HybridCommonCoin: {
        auto& mem = *memories_[static_cast<std::size_t>(
            cfg_.layout.cluster_of(p))];
        procs_.push_back(std::make_unique<CommonCoinProcess>(
            p, cfg_.layout, net, mem, *common_coin_, checker_.get(),
            cfg_.max_rounds));
        break;
      }
      case Algorithm::BenOr:
        procs_.push_back(std::make_unique<BenOrProcess>(
            p, n, net, coin_seed, cfg_.max_rounds));
        break;
    }
  }

  // Per-phase latency observer (opt-in) and/or trace mirror. Both read
  // sim.now() but never mutate simulation state, so instrumented runs are
  // byte-identical. When both are requested they share the processes'
  // single observer slot through a fanout.
  const auto now = [this] { return world_.sim().now(); };
  if (cfg_.collect_obs) {
    timings_ = std::make_unique<obs::PhaseTimings>(n, now);
  }
  if (trace_ != nullptr) {
    trace_obs_ = std::make_unique<obs::TraceObserver>(*trace_, now);
  }
  obs::IRunObserver* observer = nullptr;
  if (timings_ != nullptr && trace_obs_ != nullptr) {
    obs_fanout_ = std::make_unique<obs::ObserverFanout>(timings_.get(),
                                                        trace_obs_.get());
    observer = obs_fanout_.get();
  } else if (timings_ != nullptr) {
    observer = timings_.get();
  } else if (trace_obs_ != nullptr) {
    observer = trace_obs_.get();
  }
  if (observer != nullptr) {
    for (auto& proc : procs_) proc->set_observer(observer);
  }

  net.set_deliver(decision_timing_deliver(procs_, world_.sim(), result_));

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
  procs_[idx]->start(inputs_[idx]);
  return true;
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

  if (local_trace_ != nullptr) {
    std::ostringstream os;
    local_trace_->dump(os);
    result_.trace_dump = os.str();
  }
  return std::move(result_);
}

RunResult run_consensus(const RunConfig& cfg) {
  ConsensusRun run(cfg);
  while (!run.tick()) {
  }
  return run.finish();
}

SimNetwork::DeliverFn decision_timing_deliver(
    const std::vector<std::unique_ptr<IConsensusProcess>>& procs,
    const Simulator& sim, RunResult& r) {
  return [&procs, &sim, &r](ProcId to, ProcId from, const Message& m) {
    IConsensusProcess& proc = *procs[static_cast<std::size_t>(to)];
    const bool was_decided = proc.decided();
    proc.on_message(from, m);
    if (!was_decided && proc.decided()) r.last_decision_time = sim.now();
  };
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
