// Unit tests for the deterministic PRNG (util/rng.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "util/assert.h"
#include "util/rng.h"

namespace hyco {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "diverged at step " << i;
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  const Rng forked = parent.fork(3);
  Rng forked_copy = forked;
  Rng parent2(7);
  const Rng forked_again = parent2.fork(3);
  Rng forked_again_copy = forked_again;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(forked_copy.next_u64(), forked_again_copy.next_u64());
  }
}

TEST(Rng, ForkStreamsDiffer) {
  Rng parent(7);
  Rng s1 = parent.fork(1);
  Rng s2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (s1.next_u64() == s2.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRespectsBothBounds) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDegenerateRange) {
  Rng r(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform(4, 4), 4);
}

TEST(Rng, UniformOverWideRangesIsDefined) {
  // Spans past INT64_MAX: the span and the sum are unsigned, so neither
  // overflows. The full range adds one next_u64() to lo, wrapping;
  // [-5, INT64_MAX] spans 2^63 + 5 values.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng r(21);
  Rng twin(21);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(r.uniform(kMin, kMax),
              static_cast<std::int64_t>(static_cast<std::uint64_t>(kMin) +
                                        twin.next_u64()));
  }
  const std::uint64_t span = (std::uint64_t{1} << 63) + 5;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = r.uniform(-5, kMax);
    ASSERT_GE(v, -5);
    ASSERT_EQ(v, static_cast<std::int64_t>(twin.bounded(span) - 5));
  }
  EXPECT_EQ(r.next_u64(), twin.next_u64());
}

TEST(UniformDraw, MatchesRngUniformDrawForDraw) {
  // For every span, the precomputed draw must return what Rng::uniform
  // returns and consume the same next_u64() values: at 2^63 + 1 about half
  // of all draws are rejected, and the full 2^64 range draws once.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  struct Range {
    std::int64_t lo;
    std::int64_t hi;
  };
  const std::int64_t two32 = std::int64_t{1} << 32;
  const Range ranges[] = {
      {50, 50},                     // span 1
      {0, 1},                       // 2
      {-1, 1},                      // 3
      {-3, 3},                      // 7
      {50, 150},                    // 101
      {7, 7 + two32 - 2},           // 2^32 - 1
      {-two32 / 2, two32 / 2},      // 2^32 + 1
      {-1, kMax},                   // 2^63 + 1
      {kMin, kMax},                 // 2^64
  };
  constexpr int kDraws = 1'000'000;
  for (const Range& range : ranges) {
    const UniformDraw draw(range.lo, range.hi);
    Rng a(0xD1CE);
    Rng b(0xD1CE);
    for (int i = 0; i < kDraws; ++i) {
      const std::int64_t want = a.uniform(range.lo, range.hi);
      const std::int64_t got = draw(b);
      if (got != want) {
        FAIL() << "[" << range.lo << ", " << range.hi << "] draw " << i
               << ": " << got << " != " << want;
      }
    }
    EXPECT_EQ(a.next_u64(), b.next_u64())
        << "[" << range.lo << ", " << range.hi << "] consumed differently";
  }
}

TEST(UniformDraw, RejectsAnEmptyRange) {
  EXPECT_THROW(UniformDraw(5, 4), ContractViolation);
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng r(13);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[r.bounded(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 10 * 0.15);
  }
}

TEST(Rng, BoundedZeroAndOne) {
  Rng r(17);
  EXPECT_EQ(r.bounded(0), 0u);
  EXPECT_EQ(r.bounded(1), 0u);
}

TEST(Rng, CoinIsFairIsh) {
  Rng r(19);
  int ones = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ones += r.coin();
  EXPECT_NEAR(ones, trials / 2, 1000);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(23);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 30000, 1500);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(29);
  double sum = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) sum += r.exponential(100.0);
  EXPECT_NEAR(sum / trials, 100.0, 2.0);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng r(31);
  EXPECT_THROW(r.exponential(0.0), ContractViolation);
  EXPECT_THROW(r.exponential(-1.0), ContractViolation);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng r(37);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  r.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, PartialShufflePrefixIsDistinctSubset) {
  Rng rng(11);
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  rng.partial_shuffle(v, 5);
  std::set<int> prefix(v.begin(), v.begin() + 5);
  EXPECT_EQ(prefix.size(), 5u);
  // The whole container is still a permutation of the universe.
  std::vector<int> all = v;
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(Rng, PartialShuffleDrawOrderContract) {
  // Documented contract: draw i uses bounded(size - i), nothing else — so
  // the generator state after partial_shuffle(c, k) equals the state after
  // manually drawing that bound sequence.
  Rng a(77), b(77);
  std::vector<int> v(16);
  std::iota(v.begin(), v.end(), 0);
  a.partial_shuffle(v, 6);
  for (std::uint64_t i = 0; i < 6; ++i) b.bounded(16 - i);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1, 2), mix64(1, 2));
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 1000; ++i) outs.insert(mix64(42, i));
  EXPECT_EQ(outs.size(), 1000u);
}

TEST(Rng, SplitmixDeterministic) {
  std::uint64_t s1 = 99, s2 = 99;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(splitmix64(s1), splitmix64(s2));
  }
}

}  // namespace
}  // namespace hyco
