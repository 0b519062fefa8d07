// Unit tests for the coin oracles (Section II-B): local coins must be fair
// and independent; the common coin must deliver the SAME bit sequence to
// every process; the biased variant must corrupt exactly an ε-fraction.
#include <gtest/gtest.h>

#include <cmath>

#include "coin/coin.h"
#include "util/assert.h"

namespace hyco {
namespace {

TEST(LocalCoin, FairIsh) {
  LocalCoin c(123);
  int ones = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ones += c.flip();
  EXPECT_NEAR(ones, trials / 2, 1200);
}

TEST(LocalCoin, SeedDeterministic) {
  LocalCoin a(5), b(5);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.flip(), b.flip());
}

TEST(LocalCoin, DistinctSeedsIndependentIsh) {
  LocalCoin a(1), b(2);
  int agree = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) agree += (a.flip() == b.flip()) ? 1 : 0;
  // Independent fair coins agree ~half the time.
  EXPECT_NEAR(agree, trials / 2, 500);
}

TEST(LocalCoin, FlipCountedCounts) {
  LocalCoin c(9);
  EXPECT_EQ(c.flips(), 0u);
  (void)c.flip_counted();
  (void)c.flip_counted();
  EXPECT_EQ(c.flips(), 2u);
}

TEST(CommonCoin, SameSeedSameSequenceForEveryProcess) {
  // Two instances model two processes consulting the same oracle.
  CommonCoin p_i(777), p_j(777);
  for (Round r = 1; r <= 1000; ++r) {
    ASSERT_EQ(p_i.bit(r), p_j.bit(r)) << "diverged at round " << r;
  }
}

TEST(CommonCoin, BitsAreFairIsh) {
  CommonCoin c(31337);
  int ones = 0;
  const int rounds = 100000;
  for (Round r = 1; r <= rounds; ++r) ones += c.bit(r);
  EXPECT_NEAR(ones, rounds / 2, 1200);
}

TEST(CommonCoin, DifferentSeedsDiffer) {
  CommonCoin a(1), b(2);
  int agree = 0;
  for (Round r = 1; r <= 10000; ++r) agree += (a.bit(r) == b.bit(r)) ? 1 : 0;
  EXPECT_NEAR(agree, 5000, 500);
}

TEST(CommonCoin, RepeatedQueriesAreStable) {
  CommonCoin c(5);
  const int b1 = c.bit(42);
  EXPECT_EQ(c.bit(42), b1);
  EXPECT_EQ(c.bit(42), b1);
}

TEST(BiasedCoin, EpsilonZeroMatchesFairCoin) {
  CommonCoin fair(99);
  BiasedCommonCoin biased(99, 0.0, 1);
  for (Round r = 1; r <= 1000; ++r) ASSERT_EQ(biased.bit(r), fair.bit(r));
}

TEST(BiasedCoin, EpsilonOneAlwaysAdversary) {
  BiasedCommonCoin biased(99, 1.0, 1);
  for (Round r = 1; r <= 1000; ++r) ASSERT_EQ(biased.bit(r), 1);
}

TEST(BiasedCoin, IntermediateEpsilonCorruptsAboutEpsilonFraction) {
  CommonCoin fair(4242);
  BiasedCommonCoin biased(4242, 0.25, 1);
  int corrupted = 0;
  const int rounds = 100000;
  for (Round r = 1; r <= rounds; ++r) {
    if (biased.bit(r) != fair.bit(r)) ++corrupted;
  }
  // A corruption is visible only when the fair bit was 0 (~half the ε
  // rounds), so expect ~ε/2 visible disagreement.
  EXPECT_NEAR(corrupted, rounds / 8, 1200);
}

TEST(BiasedCoin, StillCommonAcrossInstances) {
  BiasedCommonCoin a(7, 0.3, 0);
  BiasedCommonCoin b(7, 0.3, 0);
  for (Round r = 1; r <= 1000; ++r) ASSERT_EQ(a.bit(r), b.bit(r));
}

TEST(BiasedCoin, ValidatesArguments) {
  EXPECT_THROW(BiasedCommonCoin(1, -0.1, 0), ContractViolation);
  EXPECT_THROW(BiasedCommonCoin(1, 1.1, 0), ContractViolation);
  EXPECT_THROW(BiasedCommonCoin(1, 1.0, 7), ContractViolation);
  EXPECT_THROW(BiasedCommonCoin(1, 1.0, -1), ContractViolation);
}

}  // namespace
}  // namespace hyco
