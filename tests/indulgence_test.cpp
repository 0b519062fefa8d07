// Indulgence (Section III-B): "whatever the failure pattern, the algorithm
// never terminates with an incorrect result". When no covering set of
// clusters survives, the algorithms may block forever — but they must never
// decide wrongly, under any delay distribution or adversarial scheduler.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/runner.h"
#include "workload/failure_patterns.h"

namespace hyco {
namespace {

class Indulgence
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(Indulgence, NoCoveringSetMeansQuiescenceWithoutDecision) {
  const auto [alg_idx, seed] = GetParam();
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});
  Rng rng(mix64(seed, 0x1D01));
  const auto scenario = failure_patterns::kill_covering_set(layout, rng, 0);
  ASSERT_FALSE(scenario.hybrid_should_terminate);

  RunConfig cfg(layout);
  cfg.alg = alg_idx == 0 ? Algorithm::HybridLocalCoin
                         : Algorithm::HybridCommonCoin;
  cfg.inputs = split_inputs(7);
  cfg.crashes = scenario.plan;
  cfg.seed = seed;
  cfg.max_rounds = 100;
  const auto r = run_consensus(cfg);
  EXPECT_TRUE(r.safe()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_EQ(r.stop, StopReason::Quiescent);
  // Survivors of non-covering clusters may never decide...
  EXPECT_FALSE(r.all_correct_decided);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Indulgence,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6, 7,
                                                        8)));

TEST(Indulgence, ValueSplitAdversaryCannotBreakSafety) {
  // An adversarial scheduler that delays 1-carrying messages 50x longer
  // than 0-carrying ones, trying to keep the system split. Randomization
  // must still terminate it, and safety must hold throughout.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
    cfg.alg = Algorithm::HybridLocalCoin;
    cfg.inputs = split_inputs(7);
    cfg.seed = seed;
    cfg.delay_factory = [] {
      return std::make_unique<AdversarialDelay>(
          [](ProcId, ProcId, const Message& m, SimTime, Rng& rng) {
            const SimTime base = rng.uniform(10, 50);
            return m.est == Estimate::One ? base * 50 : base;
          });
    };
    const auto r = run_consensus(cfg);
    EXPECT_TRUE(r.success()) << "seed " << seed;
  }
}

TEST(Indulgence, SlowClusterAdversaryCannotBreakSafety) {
  // Delay everything from the majority cluster — its weight still counts
  // once a single (slow) message arrives.
  const auto layout = ClusterLayout::fig1_right();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg(layout);
    cfg.alg = Algorithm::HybridCommonCoin;
    cfg.inputs = split_inputs(7);
    cfg.seed = seed;
    cfg.delay_factory = [] {
      return std::make_unique<AdversarialDelay>(
          [](ProcId from, ProcId, const Message&, SimTime, Rng& rng) {
            const SimTime base = rng.uniform(10, 50);
            const bool from_majority = from >= 1 && from <= 4;
            return from_majority ? base * 100 : base;
          });
    };
    const auto r = run_consensus(cfg);
    EXPECT_TRUE(r.success()) << "seed " << seed;
  }
}

TEST(Indulgence, EpsilonBiasedCoinDelaysButNeverCorruptsDecisions) {
  // With an ε-biased common coin the adversary can stall termination (it
  // sometimes picks the wrong bit) but can never manufacture disagreement.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
    cfg.alg = Algorithm::HybridCommonCoin;
    cfg.inputs = split_inputs(7);
    cfg.seed = seed;
    cfg.coin_epsilon = 0.5;
    const auto r = run_consensus(cfg);
    EXPECT_TRUE(r.safe()) << "seed " << seed;
    EXPECT_TRUE(r.all_correct_decided) << "seed " << seed;
  }
}

TEST(Indulgence, LateCrashesAfterDecisionAreHarmless) {
  // Processes crash at a time most runs have already decided by; whatever
  // the interleaving, safety and (for survivors) termination hold.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
    cfg.alg = Algorithm::HybridLocalCoin;
    cfg.inputs = split_inputs(7);
    cfg.seed = seed;
    cfg.crashes = CrashPlan::none(7);
    cfg.crashes.specs[2] = CrashSpec::at_time(5000);
    cfg.crashes.specs[6] = CrashSpec::at_time(6000);
    const auto r = run_consensus(cfg);
    EXPECT_TRUE(r.safe()) << "seed " << seed;
    EXPECT_TRUE(r.all_correct_decided) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hyco
