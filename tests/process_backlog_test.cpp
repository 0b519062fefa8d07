// Edge cases of the round/phase message plumbing: heavily reordered
// deliveries, processes running many rounds ahead of a laggard, DECIDE
// arriving before any phase message, and messages for long-past phases.
// These paths are where round-based algorithm implementations classically
// go wrong; the scenarios force them deterministically.
//
// They are also the only schedules where PHASE messages routinely arrive
// for a (round, phase) ahead of the receiver, so each test pins a digest of
// its runs' results: a buffering change that loses, duplicates or
// misroutes an early message shifts a decision round, an event count or a
// process's credited-message count even when every run still succeeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/runner.h"
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
  EXPECT_EQ(digest, 0xce5711b77ba04de3ull);
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

}  // namespace
}  // namespace hyco
