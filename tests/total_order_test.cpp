// Tests of the total-order broadcast extension: all correct processes
// deliver the same log, every payload from a correct submitter is
// delivered, crashes respecting the covering condition don't break
// anything, and the slot multiplexing machinery holds up under
// concurrent submissions.
#include <gtest/gtest.h>

#include <vector>

#include "core/total_order_runner.h"
#include "service/checker.h"
#include "util/assert.h"
#include "workload/failure_patterns.h"

namespace hyco {
namespace {

TEST(TotalOrder, SingleSubmissionDelivandEverywhere) {
  TobRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.submissions = {{0, 0, 101}};
  cfg.seed = 1;
  const auto r = run_tob(cfg);
  ASSERT_TRUE(r.success()) << (r.violations.empty() ? "?" : r.violations[0]);
  for (const auto& log : r.logs) {
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], 101u);
  }
}

TEST(TotalOrder, ConcurrentSubmissionsSameOrderEverywhere) {
  TobRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.submissions = {{0, 0, 11}, {3, 0, 22}, {6, 0, 33},
                     {1, 5, 44}, {4, 5, 55}};
  cfg.seed = 2;
  const auto r = run_tob(cfg);
  ASSERT_TRUE(r.success()) << (r.violations.empty() ? "?" : r.violations[0]);
  for (const auto& log : r.logs) {
    EXPECT_EQ(log.size(), 5u);
    EXPECT_EQ(log, r.logs[0]);  // identical, not merely prefix-compatible
  }
}

TEST(TotalOrder, StaggeredSubmissionsKeepOrdering) {
  TobRunConfig cfg(ClusterLayout::from_sizes({3, 3}));
  cfg.submissions = {{0, 0, 1000}, {5, 3000, 2000}, {2, 6000, 3000}};
  cfg.seed = 3;
  const auto r = run_tob(cfg);
  ASSERT_TRUE(r.success()) << (r.violations.empty() ? "?" : r.violations[0]);
  // Well-separated submissions must deliver in real-time order.
  EXPECT_EQ(r.logs[0], (std::vector<std::uint64_t>{1000, 2000, 3000}));
}

TEST(TotalOrder, SurvivesMinorityCrash) {
  TobRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.submissions = {{1, 0, 7}, {4, 10, 8}, {5, 20, 9}};
  cfg.seed = 4;
  cfg.crashes = CrashPlan::none(7);
  cfg.crashes.specs[0] = CrashSpec::at_time(50);
  cfg.crashes.specs[6] = CrashSpec::at_time(60);
  const auto r = run_tob(cfg);
  ASSERT_TRUE(r.success()) << (r.violations.empty() ? "?" : r.violations[0]);
}

TEST(TotalOrder, OneForAllMajorityCrash) {
  // 5 of 7 crash; survivors p2 (majority cluster) and p0. The covering
  // set {P[0], P[1]} = 5 > 3.5 keeps one live process each, so the log
  // must still grow and agree.
  const auto layout = ClusterLayout::fig1_right();  // {0},{1..4},{5,6}
  TobRunConfig cfg(layout);
  cfg.submissions = {{2, 0, 42}, {0, 10, 43}};
  cfg.seed = 5;
  cfg.crashes = CrashPlan::none(7);
  for (const ProcId p : {1, 3, 4, 5, 6}) {
    cfg.crashes.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(0);
  }
  const auto r = run_tob(cfg);
  ASSERT_TRUE(r.prefix_agreement);
  // Both survivors must have delivered both payloads.
  for (const ProcId p : {0, 2}) {
    EXPECT_EQ(r.logs[static_cast<std::size_t>(p)].size(), 2u) << "p" << p;
  }
}

TEST(TotalOrder, CrashedSubmitterPayloadMayOrMayNotArrive) {
  // p3 submits then crashes immediately: the payload may be lost (if the
  // gossip died with it) or delivered — either way logs must agree.
  TobRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.submissions = {{3, 0, 77}, {0, 100, 88}};
  cfg.seed = 6;
  cfg.crashes = CrashPlan::none(7);
  cfg.crashes.specs[3] = CrashSpec::at_time(1);
  const auto r = run_tob(cfg);
  EXPECT_TRUE(r.prefix_agreement);
  // 88 comes from a correct process: it must be everywhere.
  for (ProcId p = 0; p < 7; ++p) {
    if (p == 3) continue;
    const auto& log = r.logs[static_cast<std::size_t>(p)];
    EXPECT_NE(std::find(log.begin(), log.end(), 88u), log.end());
  }
}

class TobSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TobSweep, RandomizedRunsAgreeAndDeliver) {
  TobRunConfig cfg(ClusterLayout::even(8, 4));
  Rng rng(mix64(GetParam(), 0x70B));
  for (int i = 0; i < 6; ++i) {
    cfg.submissions.push_back(
        {static_cast<ProcId>(rng.bounded(8)),
         static_cast<SimTime>(rng.uniform(0, 2000)),
         static_cast<std::uint64_t>(1000 + i)});
  }
  cfg.seed = GetParam();
  const auto r = run_tob(cfg);
  ASSERT_TRUE(r.success())
      << "seed " << GetParam() << ": "
      << (r.violations.empty() ? "?" : r.violations[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TobSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(TotalOrder, ProposerCrashingMidUrbKeepsLogsIdentical) {
  // Every process submits at t = 0, so its broadcast 0 is the TOBSUBMIT
  // gossip and broadcast 1 the URB of its slot-0 VALUE. mid_broadcast
  // crashes two random proposers inside that URB, each reaching a strict
  // subset. A slot may still decide a crashed proposer's index; the
  // processes it did not reach wait for the relayed VALUE.
  const auto layout = ClusterLayout::from_sizes({3, 3, 3});
  int crashed_proposer_decided = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(mix64(seed, 0x70C));
    const auto scenario = failure_patterns::mid_broadcast(layout, 2, 1, rng);
    TobRunConfig cfg(layout);
    cfg.crashes = scenario.plan;
    cfg.seed = seed;
    for (ProcId p = 0; p < layout.n(); ++p) {
      cfg.submissions.push_back({p, 0, static_cast<std::uint64_t>(100 + p)});
    }
    const auto r = run_tob(cfg);
    ASSERT_TRUE(r.success()) << "seed " << seed << ": "
                             << (r.violations.empty() ? "?" : r.violations[0]);
    ASSERT_EQ(r.crashed, 2u) << "seed " << seed;

    std::vector<std::vector<SlotRecord>> slot_logs;
    const std::vector<std::uint64_t>* first = nullptr;
    for (ProcId p = 0; p < layout.n(); ++p) {
      const auto& log = r.logs[static_cast<std::size_t>(p)];
      if (scenario.plan.specs[static_cast<std::size_t>(p)].kind ==
          CrashSpec::Kind::OnBroadcast) {
        continue;
      }
      if (first == nullptr) first = &log;
      EXPECT_EQ(log, *first) << "seed " << seed << ", p" << p;
      std::vector<SlotRecord> slots;
      for (std::size_t i = 0; i < log.size(); ++i) {
        slots.push_back({static_cast<int>(i), log[i]});
      }
      slot_logs.push_back(std::move(slots));
    }
    const ServiceCheckReport check = check_service_logs(slot_logs);
    EXPECT_TRUE(check.ok) << "seed " << seed << ": "
                          << (check.violations.empty() ? ""
                                                       : check.violations[0]);
    ASSERT_NE(first, nullptr);
    ASSERT_FALSE(first->empty());
    const auto winner = static_cast<std::size_t>((*first)[0] - 100);
    if (scenario.plan.specs[winner].kind == CrashSpec::Kind::OnBroadcast) {
      ++crashed_proposer_decided;
    }
  }
  // The grid exercises the case this test is about.
  EXPECT_GT(crashed_proposer_decided, 0);
}

TEST(TotalOrder, RejectsNoopPayload) {
  TobRunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.submissions = {{0, 0, 0}};
  EXPECT_THROW(run_tob(cfg), ContractViolation);
}

TEST(TotalOrder, RejectsCrashPlanOfTheWrongSize) {
  TobRunConfig cfg(ClusterLayout::even(8, 2));
  cfg.submissions = {{0, 0, 7}};
  cfg.crashes = CrashPlan::none(3);
  EXPECT_THROW(run_tob(cfg), ContractViolation);
}

}  // namespace
}  // namespace hyco
