// Tests of the simulation runner itself: determinism, instrumentation
// bookkeeping, and the exact consensus-object accounting of the hybrid
// algorithms (the Section III-C hybrid-side counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/mm_domain.h"
#include "coin/coin.h"
#include "core/runner.h"
#include "core/world.h"
#include "scenario/scenario.h"
#include "shm/cluster_memory.h"
#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {
namespace {

/// What one delivery reported, and what decided() read around it.
struct DeliveryReport {
  ProcId to;
  MsgKind kind;
  bool before;    ///< decided() before on_message
  bool returned;  ///< on_message's report
  bool after;     ///< decided() after on_message
};

/// Runs `alg` on `layout` (m&m on `domain`) at `seed` under `scenario`,
/// with scenario assist on when there is one, and reads decided() around
/// every on_message and start(); start() must report a decision exactly as
/// on_message does. Returns each delivery's report; `decided` receives 1
/// for every process that decided in a delivery, 2 for one that decided
/// inside start() (a late starter's backlog can hold its whole decision),
/// and 0 for one that never decided.
std::vector<DeliveryReport> report_deliveries(
    Algorithm alg, const ClusterLayout& layout, const MmDomain* domain,
    const ScenarioConfig& scenario, std::uint64_t seed,
    std::vector<int>& decided) {
  const ProcId n = layout.n();
  World world(n, seed, CrashPlan{},
              make_delay_model(DelayConfig::uniform(50, 150)), nullptr,
              scenario, &layout);
  const auto memories = make_cluster_memories(alg, layout);
  const std::unique_ptr<ICommonCoin> coin = make_common_coin(seed, 0.0);
  std::vector<std::unique_ptr<IConsensusProcess>> procs;
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(make_consensus_process(alg, p, layout, world.net(),
                                           memories, domain, coin.get(), seed,
                                           nullptr, 60));
    procs.back()->set_scenario_assist(!scenario.empty());
  }
  std::vector<DeliveryReport> reports;
  world.net().set_deliver([&](ProcId to, ProcId from, const Message& m) {
    IConsensusProcess& proc = *procs[static_cast<std::size_t>(to)];
    const bool before = proc.decided();
    const bool returned = proc.on_message(from, m);
    reports.push_back({to, m.kind, before, returned, proc.decided()});
  });
  const std::vector<Estimate> inputs = split_inputs(n);
  decided.assign(static_cast<std::size_t>(n), 0);
  world.schedule_starts(200, [&](ProcId p) {
    const auto idx = static_cast<std::size_t>(p);
    const bool before = procs[idx]->decided();
    const bool returned = procs[idx]->start(inputs[idx]);
    EXPECT_EQ(returned, !before && procs[idx]->decided()) << "p" << p;
    if (returned) decided[idx] = 2;
  });
  world.sim().run();
  for (std::size_t p = 0; p < procs.size(); ++p) {
    if (decided[p] == 0 && procs[p]->decided()) decided[p] = 1;
  }
  return reports;
}

TEST(Runner, SameSeedBitIdenticalResults) {
  RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = split_inputs(7);
  cfg.seed = 77;
  const auto a = run_consensus(cfg);
  const auto b = run_consensus(cfg);
  EXPECT_EQ(a.decided_value, b.decided_value);
  EXPECT_EQ(a.decision_rounds, b.decision_rounds);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.net.unicasts_sent, b.net.unicasts_sent);
  EXPECT_EQ(a.shm.consensus_proposals, b.shm.consensus_proposals);
}

TEST(Runner, DifferentSeedsUsuallyDiffer) {
  RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = split_inputs(7);
  int distinct_end_times = 0;
  SimTime prev = -1;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    cfg.seed = s;
    const auto r = run_consensus(cfg);
    if (r.end_time != prev) ++distinct_end_times;
    prev = r.end_time;
  }
  EXPECT_GE(distinct_end_times, 2);
}

TEST(Runner, HybridInvokesExactlyOneConsensusObjectPerProcessPerPhase) {
  // The hybrid-side Section III-C count: each process performs exactly one
  // consensus proposal per phase, i.e. 2 per round it completes (LC).
  RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = uniform_inputs(7, Estimate::One);
  cfg.seed = 5;
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  for (const auto& ps : r.proc_stats) {
    EXPECT_EQ(ps.cons_invocations,
              2 * static_cast<std::uint64_t>(ps.rounds_entered));
  }
  // System-wide objects materialized per phase: m (one per cluster memory).
  // One round, two phases, m = 3 clusters -> 6 objects.
  EXPECT_EQ(r.consensus_objects, 6u);
}

TEST(Runner, CommonCoinInvokesOnePerRound) {
  RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.inputs = uniform_inputs(7, Estimate::Zero);
  cfg.seed = 6;
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  for (const auto& ps : r.proc_stats) {
    EXPECT_EQ(ps.cons_invocations,
              static_cast<std::uint64_t>(ps.rounds_entered));
  }
}

TEST(Runner, MessageComplexityIsNSquaredPerPhase) {
  // Unanimous LC run: every process completes round 1 (2 phases) and then
  // gossips one DECIDE broadcast: 3 broadcasts of n messages each.
  RunConfig cfg(ClusterLayout::from_sizes({4, 4}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = uniform_inputs(8, Estimate::One);
  cfg.seed = 7;
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.net.broadcasts, 3u * 8u);
  EXPECT_EQ(r.net.unicasts_sent, 3u * 8u * 8u);
}

TEST(Runner, EmptyInputsDefaultToSplit) {
  RunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.seed = 9;
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
}

TEST(Runner, InputSizeMismatchThrows) {
  RunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.inputs = {Estimate::One};
  EXPECT_THROW(run_consensus(cfg), ContractViolation);
}

TEST(Runner, TraceCapturesDecisions) {
  RunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = uniform_inputs(4, Estimate::One);
  Trace trace(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &trace;
  cfg.seed = 10;
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  std::size_t delivers = 0;
  std::vector<ProcId> deciders;
  trace.for_each([&](const TraceRecord& rec) {
    if (rec.kind == TraceKind::Deliver) ++delivers;
    if (rec.kind == TraceKind::Decide) deciders.push_back(rec.proc);
  });
  EXPECT_GT(delivers, 0u);
  std::sort(deciders.begin(), deciders.end());
  EXPECT_EQ(deciders, (std::vector<ProcId>{0, 1, 2, 3}));
}

TEST(Runner, TraceWithoutASinkIsRejected) {
  // A run is traced only into its caller's ring; it keeps none of its own.
  RunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.enable_trace = true;
  EXPECT_THROW(run_consensus(cfg), ContractViolation);
}

TEST(Runner, LastDecisionTimeIsWithinRun) {
  RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.inputs = split_inputs(7);
  cfg.seed = 11;
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_GT(r.last_decision_time, 0);
  EXPECT_LE(r.last_decision_time, r.end_time);
}

TEST(Runner, DelayFactoryOverrideIsUsed) {
  // An adversarial factory with constant huge delays still terminates —
  // virtual time is free — but end_time must reflect the delays.
  RunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = uniform_inputs(4, Estimate::Zero);
  cfg.seed = 12;
  cfg.delay_factory = [] {
    return std::make_unique<ConstantDelay>(1'000'000);
  };
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_GE(r.end_time, 1'000'000);
}

TEST(Runner, OnMessageReportsTheDecidingDelivery) {
  // on_message returns true exactly when its message takes the process
  // from undecided to decided — a DECIDE to an undecided process, or the
  // PHASE message that completes its deciding quorum — so once for each
  // process that decides, and false for every message to a process that
  // already decided, including the stale traffic scenario assist answers
  // with a DECIDE. A process that decides inside start(), from its
  // backlog, is reported by start() instead. Algorithms 2 and 3, Ben-Or
  // and m&m, with and without faults, over 10 seeds each.
  ScenarioConfig lossy;
  lossy.link.loss = 0.05;
  lossy.link.dup = 0.1;
  lossy.link.reorder_max = 100;
  const MmDomain fig2 = MmDomain::fig2();
  struct Case {
    Algorithm alg;
    ClusterLayout layout;
    const MmDomain* domain;
  };
  const Case cases[] = {
      {Algorithm::HybridLocalCoin, ClusterLayout::even(8, 3), nullptr},
      {Algorithm::HybridCommonCoin, ClusterLayout::even(8, 3), nullptr},
      {Algorithm::BenOr, ClusterLayout::singletons(7), nullptr},
      {Algorithm::Mm, ClusterLayout::singletons(fig2.n()), &fig2},
  };
  for (const Case& c : cases) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE(std::string(to_cstring(c.alg)) +
                   (faults ? " with faults" : " fault-free"));
      int by_decide = 0;
      int by_phase = 0;
      int stale = 0;     // non-DECIDE messages to decided processes
      int in_start = 0;  // processes that decided inside start()
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        std::vector<int> decided;
        const std::vector<DeliveryReport> reports = report_deliveries(
            c.alg, c.layout, c.domain, faults ? lossy : ScenarioConfig{},
            seed, decided);
        std::vector<int> reported(decided.size(), 0);
        for (const DeliveryReport& r : reports) {
          ASSERT_EQ(r.returned, !r.before && r.after)
              << "seed " << seed << ", delivery to p" << r.to;
          if (r.returned) {
            ++reported[static_cast<std::size_t>(r.to)];
            ++(r.kind == MsgKind::Decide ? by_decide : by_phase);
          }
          if (r.before && r.kind != MsgKind::Decide) ++stale;
        }
        for (std::size_t p = 0; p < decided.size(); ++p) {
          EXPECT_EQ(reported[p], decided[p] == 1 ? 1 : 0)
              << "seed " << seed << ", p" << p;
          in_start += decided[p] == 2 ? 1 : 0;
        }
      }
      EXPECT_GT(by_decide, 0);
      EXPECT_GT(by_phase, 0);
      EXPECT_GT(stale, 0);
      EXPECT_LT(in_start, by_decide + by_phase);
    }
  }
}

TEST(Runner, DecisionInsideStartIsStamped) {
  // p7 runs 4x slow over fast links, so it may start after its backlog
  // already holds a deciding quorum and decide inside start(). The run's
  // last_decision_time must still be its latest decision: the latest
  // Decide record. A Decide made inside start() runs under no delivery
  // (parent 0); some seeds end on one.
  int last_in_start = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RunConfig cfg(ClusterLayout::even(8, 3));
    cfg.alg = Algorithm::HybridCommonCoin;
    cfg.seed = seed;
    cfg.delays = DelayConfig::uniform(10, 40);
    cfg.scenario.skews.push_back(parse_skew_spec("proc:7:x4"));
    Trace trace(1 << 16);
    cfg.enable_trace = true;
    cfg.trace_sink = &trace;
    const RunResult r = run_consensus(cfg);
    ASSERT_TRUE(r.success()) << "seed " << seed;
    ASSERT_EQ(trace.recorded(), trace.size()) << "seed " << seed;
    std::optional<TraceRecord> last;
    trace.for_each([&](const TraceRecord& rec) {
      if (rec.kind == TraceKind::Decide) last = rec;
    });
    ASSERT_TRUE(last.has_value()) << "seed " << seed;
    EXPECT_EQ(r.last_decision_time, last->at) << "seed " << seed;
    last_in_start += last->parent == 0 ? 1 : 0;
  }
  EXPECT_GT(last_in_start, 0);
}

TEST(Runner, DecidedBeforeStartEntersNoRound) {
  // A 20x slow p7 over fast links often delivers a DECIDE before its
  // start time: it decides in round 0, having returned from propose()
  // before it was called. Its start() must then enter no round: no
  // proposal to a consensus object (or to the m&m domain) and no PHASE
  // broadcast. Every algorithm sees such a start in these seeds.
  std::vector<std::pair<ProcId, ProcId>> ring;
  for (ProcId p = 0; p < 8; ++p) ring.emplace_back(p, (p + 1) % 8);
  for (const Algorithm alg :
       {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin,
        Algorithm::BenOr, Algorithm::Mm}) {
    int early = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      RunConfig cfg = alg == Algorithm::Mm
                          ? RunConfig(MmDomain(8, ring))
                          : RunConfig(ClusterLayout::even(8, 3));
      cfg.alg = alg;
      cfg.seed = seed;
      cfg.delays = DelayConfig::uniform(10, 40);
      cfg.scenario.skews.push_back(parse_skew_spec("proc:7:x20"));
      Trace trace(1 << 16);
      cfg.enable_trace = true;
      cfg.trace_sink = &trace;
      const RunResult r = run_consensus(cfg);
      ASSERT_TRUE(r.success()) << to_cstring(alg) << " seed " << seed;
      ASSERT_EQ(trace.recorded(), trace.size()) << "seed " << seed;
      for (ProcId p = 0; p < 8; ++p) {
        const auto idx = static_cast<std::size_t>(p);
        if (!r.decisions[idx] || r.decision_rounds[idx] != 0) continue;
        ++early;
        const ProcessStats& st = r.proc_stats[idx];
        EXPECT_EQ(st.rounds_entered, 0) << to_cstring(alg) << " p" << p;
        EXPECT_EQ(st.cons_invocations, 0u) << to_cstring(alg) << " p" << p;
        int phase_sends = 0;
        trace.for_each([&](const TraceRecord& rec) {
          if (rec.kind == TraceKind::Send && rec.proc == p &&
              rec.msg.kind == MsgKind::Phase) {
            ++phase_sends;
          }
        });
        EXPECT_EQ(phase_sends, 0) << to_cstring(alg) << " p" << p;
      }
    }
    EXPECT_GT(early, 0) << to_cstring(alg);
  }
}

/// The config of `alg` on eight processes (m&m on a ring domain, the
/// others on even(8, 3)) at `seed`.
RunConfig eight_process_config(Algorithm alg, std::uint64_t seed) {
  std::vector<std::pair<ProcId, ProcId>> ring;
  for (ProcId p = 0; p < 8; ++p) ring.emplace_back(p, (p + 1) % 8);
  RunConfig cfg = alg == Algorithm::Mm ? RunConfig(MmDomain(8, ring))
                                       : RunConfig(ClusterLayout::even(8, 3));
  cfg.alg = alg;
  cfg.seed = seed;
  return cfg;
}

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin,
    Algorithm::BenOr, Algorithm::Mm};

TEST(Runner, DecisionsInOneTickRunStampThatTick) {
  // Over constant delays the first decider's DECIDE reaches every process
  // in one tick run, and each process still undecided decides inside it.
  // last_decision_time must be that tick's time, for both of the typed
  // receiver's process types. A process decides where it sends its DECIDE
  // (Ben-Or and m&m record no Decide), under the delivery that decided it.
  for (const Algorithm alg : kAllAlgorithms) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      RunConfig cfg = eight_process_config(alg, seed);
      cfg.delays = DelayConfig::constant_of(100);
      Trace trace(1 << 16);
      cfg.enable_trace = true;
      cfg.trace_sink = &trace;
      const RunResult r = run_consensus(cfg);
      ASSERT_TRUE(r.success()) << to_cstring(alg) << " seed " << seed;
      ASSERT_EQ(trace.recorded(), trace.size());
      std::vector<std::optional<TraceRecord>> first_decide(8);
      trace.for_each([&](const TraceRecord& rec) {
        auto& first = first_decide[static_cast<std::size_t>(rec.proc)];
        if (rec.kind == TraceKind::Send && rec.msg.kind == MsgKind::Decide &&
            !first) {
          first = rec;
        }
      });
      SimTime last = -1;
      for (const auto& rec : first_decide) {
        ASSERT_TRUE(rec.has_value()) << to_cstring(alg) << " seed " << seed;
        last = std::max(last, rec->at);
      }
      int in_last_run = 0;
      for (const auto& rec : first_decide) {
        in_last_run += rec->at == last && rec->parent != 0 ? 1 : 0;
      }
      EXPECT_GE(in_last_run, 2) << to_cstring(alg) << " seed " << seed;
      EXPECT_EQ(r.last_decision_time, last)
          << to_cstring(alg) << " seed " << seed;
    }
  }
}

TEST(Runner, TracedAndUntracedRunsAgree) {
  // Tracing takes the same delivery loop with a record and a causal
  // context around each handler; it must not change what any process
  // does. Every algorithm, with a mid-broadcast crash and a timed one.
  for (const Algorithm alg : kAllAlgorithms) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      RunConfig cfg = eight_process_config(alg, seed);
      cfg.crashes = CrashPlan::none(8);
      cfg.crashes.specs[2] = CrashSpec::on_broadcast(1, 3);
      cfg.crashes.specs[5] = CrashSpec::at_time(120);
      const RunResult plain = run_consensus(cfg);
      Trace trace(1 << 16);
      cfg.enable_trace = true;
      cfg.trace_sink = &trace;
      const RunResult traced = run_consensus(cfg);
      const std::string what =
          std::string(to_cstring(alg)) + " seed " + std::to_string(seed);
      EXPECT_GT(trace.recorded(), 0u) << what;
      EXPECT_EQ(plain.decisions, traced.decisions) << what;
      EXPECT_EQ(plain.decision_rounds, traced.decision_rounds) << what;
      EXPECT_EQ(plain.max_round, traced.max_round) << what;
      EXPECT_EQ(plain.last_decision_time, traced.last_decision_time) << what;
      EXPECT_EQ(plain.end_time, traced.end_time) << what;
      EXPECT_EQ(plain.events, traced.events) << what;
      EXPECT_EQ(plain.crashed, traced.crashed) << what;
      ASSERT_EQ(plain.proc_stats.size(), traced.proc_stats.size()) << what;
      for (std::size_t p = 0; p < plain.proc_stats.size(); ++p) {
        const ProcessStats& a = plain.proc_stats[p];
        const ProcessStats& b = traced.proc_stats[p];
        EXPECT_EQ(a.cons_invocations, b.cons_invocations) << what << " p" << p;
        EXPECT_EQ(a.coin_flips, b.coin_flips) << what << " p" << p;
        EXPECT_EQ(a.phase_msgs_handled, b.phase_msgs_handled)
            << what << " p" << p;
        EXPECT_EQ(a.rounds_entered, b.rounds_entered) << what << " p" << p;
      }
      const NetStats& a = plain.net;
      const NetStats& b = traced.net;
      EXPECT_EQ(a.unicasts_sent, b.unicasts_sent) << what;
      EXPECT_EQ(a.broadcasts, b.broadcasts) << what;
      EXPECT_EQ(a.delivered, b.delivered) << what;
      EXPECT_EQ(a.dropped_sender_crashed, b.dropped_sender_crashed) << what;
      EXPECT_EQ(a.dropped_receiver_crashed, b.dropped_receiver_crashed)
          << what;
      EXPECT_GT(a.dropped_receiver_crashed, 0u) << what;
    }
  }
}

TEST(Runner, AlgorithmNames) {
  EXPECT_STREQ(to_cstring(Algorithm::HybridLocalCoin), "hybrid-LC");
  EXPECT_STREQ(to_cstring(Algorithm::HybridCommonCoin), "hybrid-CC");
  EXPECT_STREQ(to_cstring(Algorithm::BenOr), "ben-or");
}

}  // namespace
}  // namespace hyco
