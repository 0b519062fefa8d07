// Tests of the simulation runner itself: determinism, instrumentation
// bookkeeping, and the exact consensus-object accounting of the hybrid
// algorithms (the Section III-C hybrid-side counts).
#include <gtest/gtest.h>

#include <memory>

#include "core/runner.h"
#include "util/assert.h"

namespace hyco {
namespace {

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
  cfg.enable_trace = true;
  cfg.seed = 10;
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_NE(r.trace_dump.find("deliver"), std::string::npos);
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

TEST(Runner, AlgorithmNames) {
  EXPECT_STREQ(to_cstring(Algorithm::HybridLocalCoin), "hybrid-LC");
  EXPECT_STREQ(to_cstring(Algorithm::HybridCommonCoin), "hybrid-CC");
  EXPECT_STREQ(to_cstring(Algorithm::BenOr), "ben-or");
}

}  // namespace
}  // namespace hyco
