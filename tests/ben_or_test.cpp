// Tests of the pure message-passing Ben-Or baseline: correctness under
// minority crashes, the classic majority-crash blocking behavior, and
// safety across seeds.
#include <gtest/gtest.h>

#include "baseline/ben_or.h"
#include "core/runner.h"
#include "util/assert.h"
#include "workload/failure_patterns.h"

namespace hyco {
namespace {

RunConfig base(ProcId n) {
  RunConfig cfg(ClusterLayout::singletons(n));
  cfg.alg = Algorithm::BenOr;
  return cfg;
}

TEST(BenOr, UnanimousOneRound) {
  auto cfg = base(5);
  cfg.inputs = uniform_inputs(5, Estimate::One);
  cfg.seed = 1;
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.decided_value, Estimate::One);
  EXPECT_EQ(r.max_decision_round, 1);
}

TEST(BenOr, PhaseRoundOutsideMaxRoundsIsRejected) {
  // A live peer parks at max_rounds and never sends a later round, so the
  // tallies never grow past it; a round outside [1, max_rounds] is a bug.
  class Silent final : public INetwork {
   public:
    void send(ProcId, ProcId, const Message&) override {}
    void broadcast(ProcId, const Message&) override {}
    [[nodiscard]] ProcId n() const override { return 4; }
    [[nodiscard]] bool crashed(ProcId) const override { return false; }
  } net;
  BenOrProcess proc(0, 4, net, 1, 10);
  proc.start(Estimate::One);
  EXPECT_FALSE(
      proc.on_message(1, Message::phase_msg(10, Phase::Two, Estimate::One)));
  EXPECT_THROW(
      proc.on_message(1, Message::phase_msg(11, Phase::One, Estimate::One)),
      ContractViolation);
  EXPECT_THROW(
      proc.on_message(1, Message::phase_msg(0, Phase::One, Estimate::One)),
      ContractViolation);
}

TEST(BenOr, MajorityInputUsuallyWins) {
  // 4 of 5 propose 0: phase 1 majorities see 0, decide 0 in round 1.
  auto cfg = base(5);
  cfg.inputs = {Estimate::Zero, Estimate::Zero, Estimate::Zero,
                Estimate::Zero, Estimate::One};
  cfg.seed = 2;
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.decided_value, Estimate::Zero);
}

TEST(BenOr, MinorityCrashStillTerminates) {
  const auto layout = ClusterLayout::singletons(7);
  Rng rng(3);
  const auto scenario = failure_patterns::random_minority(layout, rng, 400);
  ASSERT_TRUE(scenario.benor_should_terminate);
  auto cfg = base(7);
  cfg.crashes = scenario.plan;
  cfg.seed = 4;
  const auto r = run_consensus(cfg);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.safe());
}

TEST(BenOr, MajorityCrashBlocksButStaysSafe) {
  // 4 of 7 crash at t=0: the >n/2 wait can never be satisfied. The run must
  // quiesce without any decision (indulgence of the baseline too).
  auto cfg = base(7);
  cfg.crashes = CrashPlan::none(7);
  for (const ProcId p : {0, 1, 2, 3}) {
    cfg.crashes.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(0);
  }
  cfg.seed = 5;
  const auto r = run_consensus(cfg);
  EXPECT_FALSE(r.decided_value.has_value());
  EXPECT_FALSE(r.all_correct_decided);
  EXPECT_TRUE(r.safe());
  EXPECT_EQ(r.stop, StopReason::Quiescent);
}

TEST(BenOr, NeverUsesSharedMemory) {
  auto cfg = base(5);
  cfg.seed = 6;
  const auto r = run_consensus(cfg);
  EXPECT_EQ(r.shm.consensus_proposals, 0u);
  EXPECT_EQ(r.consensus_objects, 0u);
  for (const auto& ps : r.proc_stats) EXPECT_EQ(ps.cons_invocations, 0u);
}

// Safety sweep: no seed, input, or delay distribution may ever break
// agreement/validity.
class BenOrSafetySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BenOrSafetySweep, SplitInputsAlwaysSafeAndLive) {
  auto cfg = base(6);
  cfg.inputs = split_inputs(6);
  cfg.seed = GetParam();
  cfg.delays = (GetParam() % 2 == 0) ? DelayConfig::uniform(1, 300)
                                     : DelayConfig::exponential(80.0);
  const auto r = run_consensus(cfg);
  EXPECT_TRUE(r.success()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenOrSafetySweep,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace hyco
