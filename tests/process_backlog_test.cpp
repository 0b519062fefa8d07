// Edge cases of the round/phase message plumbing: heavily reordered
// deliveries, processes running many rounds ahead of a laggard, DECIDE
// arriving before any phase message, messages for long-past phases, and
// scenario assist's catch-up replies to them.
// These paths are where round-based algorithm implementations classically
// go wrong; the scenarios force them deterministically.
//
// They are also the only schedules where PHASE messages routinely arrive
// for a (round, phase) ahead of the receiver, so each test pins a digest of
// its runs' results: a buffering change that loses, duplicates or
// misroutes an early message shifts a decision round, an event count or a
// process's credited-message count even when every run still succeeds.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/local_coin_process.h"
#include "core/runner.h"
#include "net/network.h"
#include "shm/cluster_memory.h"
#include "util/rng.h"

namespace hyco {
namespace {

/// Folds what a run's message plumbing determines into `d`: decisions and
/// decision rounds, events, unicasts, deliveries, and every process's
/// credited PHASE messages.
std::uint64_t fold_run(std::uint64_t d, const RunResult& r) {
  for (std::size_t p = 0; p < r.decisions.size(); ++p) {
    const auto& v = r.decisions[p];
    d = mix64(d, v ? static_cast<std::uint64_t>(*v) : 0xBADu);
    d = mix64(d, static_cast<std::uint64_t>(r.decision_rounds[p]));
    d = mix64(d, r.proc_stats[p].phase_msgs_handled);
  }
  d = mix64(d, r.events);
  d = mix64(d, r.net.unicasts_sent);
  return mix64(d, r.net.delivered);
}

TEST(Backlog, OneProcessLagsManyRounds) {
  // All traffic TO p0 is delayed 400x: the rest of the system runs ahead
  // through many rounds; p0 must replay its backlog and terminate with the
  // same value.
  std::uint64_t digest = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RunConfig cfg(ClusterLayout::singletons(5));
    cfg.alg = Algorithm::HybridLocalCoin;
    cfg.inputs = split_inputs(5);
    cfg.seed = seed;
    cfg.delay_factory = [] {
      return std::make_unique<AdversarialDelay>(
          [](ProcId, ProcId to, const Message&, SimTime, Rng& rng) {
            const SimTime base = rng.uniform(5, 30);
            return to == 0 ? base * 400 : base;
          });
    };
    const auto r = run_consensus(cfg);
    ASSERT_TRUE(r.success()) << "seed " << seed;
    digest = fold_run(digest, r);
  }
  EXPECT_EQ(digest, 0x3e9bb21413ffc15bull);
}

TEST(Backlog, ExtremeReorderingAcrossPhases) {
  // Per-message delays spanning three orders of magnitude: phase-2 traffic
  // of round r regularly overtakes phase-1 traffic of round r.
  std::uint64_t digest = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
    cfg.alg = Algorithm::HybridLocalCoin;
    cfg.inputs = split_inputs(7);
    cfg.seed = seed;
    cfg.delay_factory = [] {
      return std::make_unique<AdversarialDelay>(
          [](ProcId, ProcId, const Message&, SimTime, Rng& rng) {
            return rng.bernoulli(0.3) ? rng.uniform(1, 10)
                                      : rng.uniform(500, 5000);
          });
    };
    const auto r = run_consensus(cfg);
    ASSERT_TRUE(r.success()) << "seed " << seed;
    digest = fold_run(digest, r);
  }
  EXPECT_EQ(digest, 0x5ab560135e7f017eull);
}

TEST(Backlog, DecideCanArriveBeforeAnyPhaseMessage) {
  // p6 gets all PHASE traffic delayed enormously but DECIDE gossip fast:
  // it must short-circuit to the decision without processing any round.
  RunConfig cfg(ClusterLayout::from_sizes({3, 3, 1}));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.inputs = uniform_inputs(7, Estimate::One);
  cfg.seed = 3;
  cfg.delay_factory = [] {
    return std::make_unique<AdversarialDelay>(
        [](ProcId, ProcId to, const Message& m, SimTime, Rng& rng) {
          const SimTime base = rng.uniform(5, 30);
          if (to == 6 && m.kind == MsgKind::Phase) return base + 1'000'000;
          return base;
        });
  };
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.decisions[6], Estimate::One);
  // p6 decided via gossip in whatever round it was stuck in (round 1).
  EXPECT_EQ(r.decision_rounds[6], 1);
  EXPECT_EQ(fold_run(0, r), 0x75e265b1805e6507ull);
}

TEST(Backlog, CommonCoinLaggardConvergesAcrossManyRounds) {
  // p7's own traffic crawls, so in some seeds a DECIDE reaches it before
  // its start time, and it then starts without entering a round.
  std::uint64_t digest = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RunConfig cfg(ClusterLayout::even(8, 4));
    cfg.alg = Algorithm::HybridCommonCoin;
    cfg.inputs = split_inputs(8);
    cfg.seed = seed;
    cfg.delay_factory = [] {
      return std::make_unique<AdversarialDelay>(
          [](ProcId from, ProcId, const Message&, SimTime, Rng& rng) {
            const SimTime base = rng.uniform(5, 30);
            return from == 7 ? base * 250 : base;
          });
    };
    const auto r = run_consensus(cfg);
    ASSERT_TRUE(r.success()) << "seed " << seed;
    digest = fold_run(digest, r);
  }
  EXPECT_EQ(digest, 0x4ce6b928023b17d4ull);
}

TEST(Backlog, MaxRoundsParkingIsCleanNotCrash) {
  // Force non-termination structurally (no covering set) and verify parked
  // processes leave the run quiescent with bounded rounds.
  RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = split_inputs(7);
  cfg.seed = 4;
  cfg.max_rounds = 10;
  cfg.crashes = CrashPlan::none(7);
  // kill clusters 1 and 2 entirely: coverage 2 of 7 remains
  for (const ProcId p : {2, 3, 4, 5, 6}) {
    cfg.crashes.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(0);
  }
  const auto r = run_consensus(cfg);
  EXPECT_TRUE(r.safe());
  EXPECT_LE(r.max_round, 10);
  EXPECT_EQ(r.stop, StopReason::Quiescent);
  EXPECT_EQ(fold_run(0, r), 0xee3979eee9bec4c4ull);
}

TEST(Backlog, SelfDeliveryIsNotAssumedInstant) {
  // Self messages get the worst delay of all: algorithms must not rely on
  // hearing themselves first.
  std::uint64_t digest = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
    cfg.alg = Algorithm::HybridLocalCoin;
    cfg.inputs = split_inputs(7);
    cfg.seed = seed;
    cfg.delay_factory = [] {
      return std::make_unique<AdversarialDelay>(
          [](ProcId from, ProcId to, const Message&, SimTime, Rng& rng) {
            const SimTime base = rng.uniform(5, 30);
            return from == to ? base * 300 : base;
          });
    };
    const auto r = run_consensus(cfg);
    ASSERT_TRUE(r.success()) << "seed " << seed;
    digest = fold_run(digest, r);
  }
  EXPECT_EQ(digest, 0xc0acfe24b44f89caull);
}

// Scenario assist's catch-up replies, driven message by message: an
// Algorithm 2 process p0 at n = 16, m = 4 (clusters p0-p3, p4-p7, p8-p11,
// p12-p15) over a network that records what it sends.

/// INetwork that records every unicast and broadcast.
class RecordingNetwork final : public INetwork {
 public:
  struct Unicast {
    ProcId to;
    Message msg;
  };

  void send(ProcId, ProcId to, const Message& m) override {
    sends.push_back({to, m});
  }
  void broadcast(ProcId, const Message& m) override {
    broadcasts.push_back(m);
  }
  [[nodiscard]] ProcId n() const override { return 16; }
  [[nodiscard]] bool crashed(ProcId) const override { return false; }

  std::vector<Unicast> sends;
  std::vector<Message> broadcasts;
};

struct CatchUpRig {
  explicit CatchUpRig(Round max_rounds = 100)
      : proc(0, layout, net, memory, 1, nullptr, max_rounds) {
    proc.set_scenario_assist(true);
  }

  void deliver(ProcId from, Round r, Phase ph, Estimate v) {
    proc.on_message(from, Message::phase_msg(r, ph, v));
  }

  /// PHASE(r, ph, ·) from p4, p8 and p12, carrying `vs`: one member of
  /// each other cluster, which covers 12 > n/2 processes.
  void quorum(Round r, Phase ph, const std::array<Estimate, 3>& vs) {
    deliver(4, r, ph, vs[0]);
    deliver(8, r, ph, vs[1]);
    deliver(12, r, ph, vs[2]);
  }

  /// Starts p0 with 1 and runs round 1: est1 = 1, a split phase 1 that
  /// makes est2 = ⊥, and rec = {1, ⊥}, so p0 is in (2, ph1) with est1 = 1.
  /// Clears what that sent.
  void run_round_one() {
    proc.start(Estimate::One);
    quorum(1, Phase::One, {Estimate::One, Estimate::Zero, Estimate::One});
    quorum(1, Phase::Two, {Estimate::One, Estimate::Bot, Estimate::Bot});
    net.sends.clear();
    net.broadcasts.clear();
  }

  /// The unicasts sent since the last call.
  std::vector<RecordingNetwork::Unicast> take() {
    std::vector<RecordingNetwork::Unicast> out;
    out.swap(net.sends);
    return out;
  }

  ClusterLayout layout = ClusterLayout::even(16, 4);
  RecordingNetwork net;
  ClusterMemory memory{0, 16};
  LocalCoinProcess proc;
};

/// Whether `u` is PHASE(r, ph, v) to `to`.
bool is_reply(const RecordingNetwork::Unicast& u, ProcId to, Round r,
              Phase ph, Estimate v) {
  return u.to == to && u.msg.kind == MsgKind::Phase && u.msg.round == r &&
         u.msg.phase == ph && u.msg.est == v;
}

TEST(CatchUp, OneReplyPerPeerRoundAndPhaseCarryingTheSentEstimate) {
  CatchUpRig rig;
  rig.run_round_one();
  ASSERT_EQ(rig.proc.current_round(), 2);

  rig.deliver(5, 1, Phase::One, Estimate::Zero);
  auto sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_TRUE(is_reply(sent[0], 5, 1, Phase::One, Estimate::One));
  rig.deliver(5, 1, Phase::One, Estimate::Zero);  // a duplicate
  EXPECT_TRUE(rig.take().empty());
  rig.deliver(6, 1, Phase::One, Estimate::One);
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_TRUE(is_reply(sent[0], 6, 1, Phase::One, Estimate::One));

  // Phase 2 of round 1 sent ⊥, and the reply carries it.
  rig.deliver(5, 1, Phase::Two, Estimate::Bot);
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_TRUE(is_reply(sent[0], 5, 1, Phase::Two, Estimate::Bot));
  rig.deliver(5, 1, Phase::Two, Estimate::One);
  EXPECT_TRUE(rig.take().empty());

  // The active exchange has begun too.
  rig.deliver(5, 2, Phase::One, Estimate::One);
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_TRUE(is_reply(sent[0], 5, 2, Phase::One, Estimate::One));
  rig.deliver(5, 2, Phase::One, Estimate::One);
  EXPECT_TRUE(rig.take().empty());
  EXPECT_TRUE(rig.net.broadcasts.empty());
}

TEST(CatchUp, NoReplyForAnExchangeNotBegun) {
  CatchUpRig rig;
  rig.run_round_one();
  constexpr Round kLast = std::numeric_limits<Round>::max();
  for (const Round r : {2, 3, 1000, kLast}) {
    for (const Phase ph : {Phase::One, Phase::Two}) {
      if (r == 2 && ph == Phase::One) continue;  // the active exchange
      rig.deliver(5, r, ph, Estimate::One);
    }
  }
  rig.deliver(5, 0, Phase::One, Estimate::One);
  EXPECT_TRUE(rig.take().empty());

  // Once (2, ph2) begins (the quorum's senders get their (2, ph1)
  // replies on the way), it answers peers.
  rig.quorum(2, Phase::One, {Estimate::One, Estimate::One, Estimate::One});
  ASSERT_EQ(rig.net.broadcasts.size(), 1u);
  const Message& mine = rig.net.broadcasts[0];
  ASSERT_EQ(mine.phase, Phase::Two);
  EXPECT_EQ(rig.take().size(), 3u);
  rig.deliver(6, 2, Phase::Two, Estimate::One);
  const auto sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_TRUE(is_reply(sent[0], 6, 2, Phase::Two, mine.est));
}

TEST(CatchUp, PeerRecoverReallowsRepliesToThatPeerOnly) {
  CatchUpRig rig;
  rig.run_round_one();
  for (const ProcId q : {5, 6}) {
    rig.deliver(q, 1, Phase::One, Estimate::One);
    rig.deliver(q, 1, Phase::Two, Estimate::Bot);
  }
  ASSERT_EQ(rig.take().size(), 4u);

  rig.proc.on_peer_recover(5);
  rig.proc.on_peer_recover(9);  // never answered: changes nothing
  rig.deliver(6, 1, Phase::One, Estimate::One);
  rig.deliver(6, 1, Phase::Two, Estimate::Bot);
  EXPECT_TRUE(rig.take().empty());
  rig.deliver(5, 1, Phase::One, Estimate::One);
  rig.deliver(5, 1, Phase::Two, Estimate::Bot);
  rig.deliver(5, 1, Phase::Two, Estimate::Bot);
  const auto sent = rig.take();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_TRUE(is_reply(sent[0], 5, 1, Phase::One, Estimate::One));
  EXPECT_TRUE(is_reply(sent[1], 5, 1, Phase::Two, Estimate::Bot));
}

TEST(CatchUp, UnstartedParkedOrUnassistedProcessesSendNoReply) {
  CatchUpRig unstarted;
  unstarted.deliver(5, 1, Phase::One, Estimate::One);
  EXPECT_TRUE(unstarted.take().empty());

  CatchUpRig parked(/*max_rounds=*/1);
  parked.run_round_one();
  ASSERT_TRUE(parked.proc.parked());
  parked.deliver(5, 1, Phase::One, Estimate::One);
  parked.deliver(5, 1, Phase::Two, Estimate::Bot);
  EXPECT_TRUE(parked.take().empty());

  CatchUpRig plain;
  plain.proc.set_scenario_assist(false);
  plain.run_round_one();
  plain.deliver(5, 1, Phase::One, Estimate::One);
  EXPECT_TRUE(plain.take().empty());
}

TEST(CatchUp, DecidedProcessAnswersWithDecide) {
  CatchUpRig rig;
  rig.proc.start(Estimate::One);
  rig.quorum(1, Phase::One, {Estimate::One, Estimate::One, Estimate::One});
  rig.quorum(1, Phase::Two, {Estimate::One, Estimate::One, Estimate::One});
  ASSERT_EQ(rig.proc.decision(), Estimate::One);
  rig.take();
  rig.deliver(5, 1, Phase::One, Estimate::One);
  const auto sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].to, 5);
  EXPECT_EQ(sent[0].msg.kind, MsgKind::Decide);
  EXPECT_EQ(sent[0].msg.est, Estimate::One);
}

}  // namespace
}  // namespace hyco
