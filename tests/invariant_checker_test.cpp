// Unit tests for the online invariant checker: it must catch each violation
// class (cluster inconsistency, WA1, WA2, agreement, validity) and stay
// silent on clean traces.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/invariant_checker.h"
#include "util/assert.h"

namespace hyco {
namespace {

ClusterLayout layout() { return ClusterLayout::from_sizes({2, 3, 2}); }

TEST(InvariantChecker, CleanTraceIsOk) {
  const auto l = layout();
  InvariantChecker c(l);
  c.set_inputs(std::vector<Estimate>(7, Estimate::One));
  for (ProcId p = 0; p < 7; ++p) c.on_est1(p, 1, Estimate::One);
  for (ProcId p = 0; p < 7; ++p) c.on_est2(p, 1, Estimate::One);
  for (ProcId p = 0; p < 7; ++p) c.on_rec(p, 1, estimate_set({Estimate::One}));
  for (ProcId p = 0; p < 7; ++p) c.on_decide(p, 1, Estimate::One);
  EXPECT_TRUE(c.ok()) << c.violations()[0];
  EXPECT_EQ(c.decided_value(), Estimate::One);
}

TEST(InvariantChecker, CatchesClusterInconsistentEst1) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_est1(2, 1, Estimate::Zero);  // p2 and p3 are both in P[1]
  c.on_est1(3, 1, Estimate::One);
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].find("cluster-inconsistency"),
            std::string::npos);
}

TEST(InvariantChecker, SameClusterDifferentRoundsIsFine) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_est1(2, 1, Estimate::Zero);
  c.on_est1(3, 2, Estimate::One);  // different round: no conflict
  EXPECT_TRUE(c.ok());
}

TEST(InvariantChecker, CatchesBotEst1) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_est1(0, 1, Estimate::Bot);
  EXPECT_FALSE(c.ok());
}

TEST(InvariantChecker, CatchesWa1Violation) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_est2(0, 3, Estimate::Zero);
  c.on_est2(2, 3, Estimate::One);  // two distinct non-⊥ est2 in one round
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].find("WA1"), std::string::npos);
}

TEST(InvariantChecker, BotEst2NeverTriggersWa1) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_est2(0, 3, Estimate::Zero);
  c.on_est2(2, 3, Estimate::Bot);
  c.on_est2(5, 3, Estimate::Zero);
  EXPECT_TRUE(c.ok());
}

TEST(InvariantChecker, CatchesWa2Violation) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_rec(0, 2, estimate_set({Estimate::One}));  // rec = {v}
  // rec = {⊥}: mutually exclusive with {v}
  c.on_rec(2, 2, estimate_set({Estimate::Bot}));
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].find("WA2"), std::string::npos);
}

TEST(InvariantChecker, Wa2OrderIndependent) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_rec(2, 2, estimate_set({Estimate::Bot}));
  c.on_rec(0, 2, estimate_set({Estimate::One}));
  EXPECT_FALSE(c.ok());
}

TEST(InvariantChecker, MixedRecIsCompatibleWithBoth) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_rec(0, 2, estimate_set({Estimate::One}));
  // {v,⊥} is fine
  c.on_rec(1, 2, estimate_set({Estimate::One, Estimate::Bot}));
  EXPECT_TRUE(c.ok());
}

TEST(InvariantChecker, CatchesRecWithBothBinaryValues) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_rec(0, 1, estimate_set({Estimate::Zero, Estimate::One}));
  EXPECT_FALSE(c.ok());
}

TEST(InvariantChecker, CatchesEmptyRec) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_rec(0, 1, estimate_set({}));
  EXPECT_FALSE(c.ok());
}

TEST(InvariantChecker, CatchesDisagreement) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_decide(0, 1, Estimate::Zero);
  c.on_decide(1, 2, Estimate::One);
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].find("AGREEMENT"), std::string::npos);
}

TEST(InvariantChecker, CatchesInvalidDecision) {
  const auto l = layout();
  InvariantChecker c(l);
  c.set_inputs(std::vector<Estimate>(7, Estimate::Zero));
  c.on_decide(0, 1, Estimate::One);  // 1 was never proposed
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].find("VALIDITY"), std::string::npos);
}

TEST(InvariantChecker, CatchesBotDecision) {
  const auto l = layout();
  InvariantChecker c(l);
  c.on_decide(0, 1, Estimate::Bot);
  EXPECT_FALSE(c.ok());
}

TEST(InvariantChecker, LateRoundsAndRoundsPastTheFirstGrowthAreChecked) {
  // Records are indexed by round: a round reported after others reached
  // round 20, and rounds past the first growths, meet their own records
  // and no other round's.
  const auto l = layout();
  InvariantChecker c(l);
  for (Round r = 2; r <= 20; ++r) {
    for (ProcId p = 0; p < 7; ++p) {
      c.on_est1(p, r, estimate_from_bit(r % 2));
      c.on_est2(p, r, p >= 5 ? Estimate::Bot : estimate_from_bit(r % 2));
      c.on_rec(p, r, estimate_set({Estimate::One, Estimate::Bot}));
    }
  }
  c.on_rec(0, 20, estimate_set({Estimate::One}));
  ASSERT_TRUE(c.ok()) << c.violations()[0];

  c.on_est1(2, 1, Estimate::Zero);  // p2 and p3 share P[1]
  c.on_est1(3, 1, Estimate::One);
  c.on_est2(0, 1, Estimate::Zero);
  c.on_est2(5, 1, Estimate::One);
  c.on_rec(4, 1, estimate_set({Estimate::Bot}));
  c.on_rec(1, 1, estimate_set({Estimate::Zero}));
  c.on_est1(6, 100, Estimate::One);
  c.on_est1(5, 100, Estimate::Zero);  // P[2] is p5 and p6
  c.on_rec(3, 333, estimate_set({Estimate::One}));
  c.on_rec(2, 333, estimate_set({Estimate::Bot}));
  c.on_rec(6, 20, estimate_set({Estimate::Bot}));
  const std::vector<std::string> want = {
      "est1 cluster-inconsistency: p3 in P[1] has 1 but cluster already "
      "agreed 0 at round 1",
      "WA1 violated at round 1: est2 values 0 and 1 (p5)",
      "WA2 violated at round 1: p1 has rec={v} while p4 has rec={⊥}",
      "est1 cluster-inconsistency: p5 in P[2] has 0 but cluster already "
      "agreed 1 at round 100",
      "WA2 violated at round 333: p3 has rec={v} while p2 has rec={⊥}",
      "WA2 violated at round 20: p0 has rec={v} while p6 has rec={⊥}",
  };
  EXPECT_EQ(c.violations(), want);
}

TEST(InvariantChecker, InputSizeValidated) {
  const auto l = layout();
  InvariantChecker c(l);
  EXPECT_THROW(c.set_inputs({Estimate::One}), ContractViolation);
  EXPECT_THROW(c.set_inputs(std::vector<Estimate>(7, Estimate::Bot)),
               ContractViolation);
}

}  // namespace
}  // namespace hyco
