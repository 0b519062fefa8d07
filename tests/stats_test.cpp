// Unit tests for the statistics toolkit (util/stats.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/assert.h"
#include "util/stats.h"

namespace hyco {
namespace {

TEST(ExactMoments, MatchesNaiveAndMergesExactly) {
  ExactMoments whole;
  double naive_sum = 0.0;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    whole.add(i * 7);
    naive_sum += static_cast<double>(i * 7);
  }
  EXPECT_EQ(whole.count(), 1000u);
  EXPECT_DOUBLE_EQ(whole.mean(), naive_sum / 1000.0);
  EXPECT_DOUBLE_EQ(whole.min(), 7.0);
  EXPECT_DOUBLE_EQ(whole.max(), 7000.0);

  // Any partition + any merge order reproduces the identical state (the
  // property the streaming executor's determinism rests on).
  ExactMoments a, b, c;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    (i % 3 == 0 ? a : (i % 3 == 1 ? b : c)).add(i * 7);
  }
  ExactMoments abc = c;
  abc.merge(a);
  abc.merge(b);
  EXPECT_EQ(abc.count(), whole.count());
  EXPECT_TRUE(abc.raw_sum() == whole.raw_sum());
  EXPECT_TRUE(abc.raw_sumsq() == whole.raw_sumsq());
  EXPECT_DOUBLE_EQ(abc.variance(), whole.variance());
  EXPECT_DOUBLE_EQ(abc.stddev(), whole.stddev());
}

TEST(ExactMoments, VarianceIsExactForKnownData) {
  ExactMoments m;
  for (const std::uint64_t x : {2u, 4u, 4u, 4u, 5u, 5u, 7u, 9u}) m.add(x);
  EXPECT_DOUBLE_EQ(m.variance(), 32.0 / 7.0);
}

TEST(ExactMoments, RawRoundTrip) {
  ExactMoments m;
  for (std::uint64_t i = 10; i < 20; ++i) m.add(i);
  const ExactMoments copy = ExactMoments::from_raw(
      m.count(), m.raw_sum(), m.raw_sumsq(), m.raw_min(), m.raw_max());
  EXPECT_DOUBLE_EQ(copy.mean(), m.mean());
  EXPECT_DOUBLE_EQ(copy.variance(), m.variance());
}

TEST(ReservoirSample, KeepsEverythingBelowCapacity) {
  ReservoirSample r(16);
  for (std::uint64_t i = 0; i < 10; ++i) {
    r.add(i * 2654435761u, static_cast<double>(i));
  }
  EXPECT_EQ(r.size(), 10u);
  const auto vals = r.sorted_values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_DOUBLE_EQ(vals[i], static_cast<double>(i));
  }
}

TEST(ReservoirSample, BottomKIsOrderAndMergeInvariant) {
  // 1000 (priority, value) pairs fed (a) in order, (b) reversed, (c) split
  // across three reservoirs merged in a different order — identical kept
  // sets every time.
  std::vector<ReservoirSample::Entry> entries;
  std::uint64_t h = 0x9E3779B97F4A7C15;
  for (int i = 0; i < 1000; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    entries.push_back({h, static_cast<double>(i)});
  }

  ReservoirSample fwd(64), rev(64);
  for (const auto& e : entries) fwd.add(e.priority, e.value);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    rev.add(it->priority, it->value);
  }
  EXPECT_EQ(fwd.sorted_values(), rev.sorted_values());

  ReservoirSample a(64), b(64), c(64);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    (i % 3 == 0 ? a : (i % 3 == 1 ? b : c))
        .add(entries[i].priority, entries[i].value);
  }
  ReservoirSample merged = b;
  merged.merge(c);
  merged.merge(a);
  EXPECT_EQ(merged.sorted_values(), fwd.sorted_values());
  EXPECT_EQ(merged.size(), 64u);
}

TEST(ReservoirSample, RejectsCapacityMismatchAndZero) {
  EXPECT_THROW(ReservoirSample(0), ContractViolation);
  ReservoirSample a(4), b(8);
  EXPECT_THROW(a.merge(b), ContractViolation);
}

TEST(Summary, PercentilesOnKnownData) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Summary, EmptyAndSingle) {
  Summary s;
  EXPECT_EQ(s.percentile(50), 0.0);
  s.add(7.0);
  EXPECT_EQ(s.percentile(0), 7.0);
  EXPECT_EQ(s.percentile(100), 7.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, PercentileRangeChecked) {
  Summary s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), ContractViolation);
  EXPECT_THROW(s.percentile(101), ContractViolation);
}

TEST(Summary, AddAllAndToString) {
  Summary s;
  s.add_all({1.0, 2.0, 3.0});
  EXPECT_EQ(s.count(), 3u);
  const auto str = s.to_string();
  EXPECT_NE(str.find("n=3"), std::string::npos);
}

}  // namespace
}  // namespace hyco
