// Tests of the thread host: the simulator's Algorithm 2 and 3 processes, one
// thread each, over real mailboxes and shared atomic cluster memories.
// Interleavings are nondeterministic, so assertions target the algorithm
// guarantees (agreement, validity, termination under scheduled fairness),
// not exact round counts.
#include <gtest/gtest.h>

#include "runtime/threaded_runner.h"
#include "util/assert.h"

namespace hyco {
namespace {

TEST(ThreadedCommonCoin, UnanimousDecidesProposedValue) {
  ThreadRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.inputs = std::vector<Estimate>(7, Estimate::One);
  cfg.seed = 17;
  const auto r = run_threaded(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.decided_value, Estimate::One);
}

TEST(ThreadedCommonCoin, SplitInputsTerminate) {
  ThreadRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.seed = 23;
  const auto r = run_threaded(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_TRUE(r.decided_value.has_value());
}

TEST(ThreadedLocalCoin, UnanimousDecidesFast) {
  ThreadRunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = std::vector<Estimate>(4, Estimate::Zero);
  cfg.seed = 31;
  const auto r = run_threaded(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.decided_value, Estimate::Zero);
}

TEST(ThreadedLocalCoin, SplitInputsTerminate) {
  ThreadRunConfig cfg(ClusterLayout::from_sizes({3, 3}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.seed = 37;
  const auto r = run_threaded(cfg);
  ASSERT_TRUE(r.success());
}

TEST(ThreadedCrash, SurvivorsOfMajorityClusterDecide) {
  // Layout {1,4,2}: cluster 1 = {1,2,3,4} is a majority cluster. Crash p0
  // and p5, p6 plus three members of the majority cluster in their round-1
  // broadcast, each reaching 2 peers; the single survivor p1 (plus the
  // one-for-all closure) must still decide.
  ThreadRunConfig cfg(ClusterLayout::from_sizes({1, 4, 2}));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.seed = 41;
  cfg.crashes = CrashPlan::none(7);
  for (const ProcId p : {0, 2, 3, 4, 5, 6}) {
    cfg.crashes.specs[static_cast<std::size_t>(p)] =
        CrashSpec::on_broadcast(0, 2);
  }
  const auto r = run_threaded(cfg);
  EXPECT_FALSE(r.deadline_hit);
  EXPECT_TRUE(r.agreement_ok);
  ASSERT_TRUE(r.decisions[1].has_value())
      << "the majority-cluster survivor must decide";
}

TEST(ThreadedContract, RejectsTimedCrashesAndForwardsProcessErrors) {
  // Threads have no virtual time for an AtTime crash.
  ThreadRunConfig timed(ClusterLayout::from_sizes({2, 2}));
  timed.crashes = CrashPlan::none(4);
  timed.crashes.specs[1] = CrashSpec::at_time(100);
  EXPECT_THROW(run_threaded(timed), ContractViolation);
  // Every process's start() rejects ⊥ on its own thread; run_threaded
  // rethrows after joining.
  ThreadRunConfig bot(ClusterLayout::from_sizes({2, 2}));
  bot.inputs.assign(4, Estimate::Bot);
  EXPECT_THROW(run_threaded(bot), ContractViolation);
}

TEST(ThreadedScale, ManyProcessesManyClusters) {
  ThreadRunConfig cfg(ClusterLayout::even(16, 4));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.seed = 53;
  const auto r = run_threaded(cfg);
  ASSERT_TRUE(r.success());
}

}  // namespace
}  // namespace hyco
