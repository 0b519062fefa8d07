// Tests of the m&m comparator: the Figure 2 domain must match the paper's
// appendix exactly, the per-process consensus-invocation count must be
// α_i + 1 per phase (the Section III-C comparison), and the algorithm must
// be safe and (crash-free) live.
#include <gtest/gtest.h>

#include "baseline/mm_domain.h"
#include "baseline/mm_runner.h"
#include "util/assert.h"

namespace hyco {
namespace {

TEST(MmDomain, Figure2MatchesPaperAppendix) {
  const auto d = MmDomain::fig2();
  ASSERT_EQ(d.n(), 5);
  // Paper (1-based): S1={p1,p2} S2={p1,p2,p3} S3={p2,p3,p4,p5}
  //                  S4={p3,p4,p5} S5={p3,p4,p5}.   0-based below.
  EXPECT_EQ(d.domain_of(0), (std::vector<ProcId>{0, 1}));
  EXPECT_EQ(d.domain_of(1), (std::vector<ProcId>{0, 1, 2}));
  EXPECT_EQ(d.domain_of(2), (std::vector<ProcId>{1, 2, 3, 4}));
  EXPECT_EQ(d.domain_of(3), (std::vector<ProcId>{2, 3, 4}));
  EXPECT_EQ(d.domain_of(4), (std::vector<ProcId>{2, 3, 4}));
}

TEST(MmDomain, DegreesMatchFigure2) {
  const auto d = MmDomain::fig2();
  EXPECT_EQ(d.degree(0), 1);
  EXPECT_EQ(d.degree(1), 2);
  EXPECT_EQ(d.degree(2), 3);
  EXPECT_EQ(d.degree(3), 2);
  EXPECT_EQ(d.degree(4), 2);
}

TEST(MmDomain, AdjacencyIsSymmetric) {
  const auto d = MmDomain::fig2();
  for (ProcId i = 0; i < d.n(); ++i) {
    for (ProcId j = 0; j < d.n(); ++j) {
      EXPECT_EQ(d.adjacent(i, j), d.adjacent(j, i));
    }
  }
  EXPECT_FALSE(d.adjacent(0, 0));
}

TEST(MmDomain, ValidatesConstruction) {
  EXPECT_THROW(MmDomain(3, {{0, 0}}), ContractViolation);          // loop
  EXPECT_THROW(MmDomain(3, {{0, 1}, {1, 0}}), ContractViolation);  // dup
  EXPECT_THROW(MmDomain(3, {{0, 5}}), ContractViolation);          // range
  EXPECT_THROW(MmDomain(0, {}), ContractViolation);                // empty
}

TEST(MmDomain, ToStringMentionsAllSets) {
  const auto s = MmDomain::fig2().to_string();
  EXPECT_NE(s.find("S0={0,1}"), std::string::npos);
  EXPECT_NE(s.find("S2={1,2,3,4}"), std::string::npos);
}

TEST(MmConsensus, CrashFreeTerminatesOnFig2) {
  MmRunConfig cfg(MmDomain::fig2());
  cfg.seed = 7;
  const auto r = run_mm(cfg);
  ASSERT_TRUE(r.success());
}

TEST(MmConsensus, UnanimousDecidesProposal) {
  MmRunConfig cfg(MmDomain::fig2());
  cfg.inputs = std::vector<Estimate>(5, Estimate::One);
  cfg.seed = 8;
  const auto r = run_mm(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.decided_value, Estimate::One);
}

TEST(MmConsensus, InvocationsPerPhaseAreDegreePlusOne) {
  // The Section III-C count: per phase, p_i invokes α_i + 1 consensus
  // objects. Over R rounds of 2 phases: 2 * R * (α_i + 1) invocations.
  const auto d = MmDomain::fig2();
  MmRunConfig cfg(d);
  cfg.inputs = std::vector<Estimate>(5, Estimate::Zero);  // 1-round run
  cfg.seed = 9;
  const auto r = run_mm(cfg);
  ASSERT_TRUE(r.success());
  for (ProcId p = 0; p < 5; ++p) {
    const auto& st = r.proc_stats[static_cast<std::size_t>(p)];
    const auto rounds = static_cast<std::uint64_t>(st.rounds_entered);
    EXPECT_EQ(st.cons_invocations,
              2 * rounds * static_cast<std::uint64_t>(d.degree(p) + 1))
        << "p" << p;
  }
}

TEST(MmConsensus, SystemTouchesNMemoriesPerPhase) {
  // n distinct p_i-centered memories exist and all are touched (every
  // memory has at least its owner proposing to it).
  MmRunConfig cfg(MmDomain::fig2());
  cfg.inputs = std::vector<Estimate>(5, Estimate::Zero);
  cfg.seed = 10;
  const auto r = run_mm(cfg);
  ASSERT_TRUE(r.success());
  // Every phase proposes sum_i (α_i + 1) = n + 2|E| times in total.
  const std::uint64_t total_per_phase = 5 + 2 * 5;
  EXPECT_GE(r.shm.consensus_proposals, 2 * total_per_phase);  // >= 1 round
}

class MmSafetySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MmSafetySweep, SplitInputsSafeOnFig2) {
  MmRunConfig cfg(MmDomain::fig2());
  cfg.seed = GetParam();
  const auto r = run_mm(cfg);
  EXPECT_TRUE(r.agreement_ok && r.validity_ok) << "seed " << GetParam();
  EXPECT_TRUE(r.all_correct_decided) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmSafetySweep,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(MmConsensus, NoOneForAllClosure) {
  // Contrast with the hybrid model: crash 3 of 5 processes (a majority).
  // Even though the m&m domain graph is connected, counting has no cluster
  // closure, so the run must block (quiesce undecided) — the hybrid model
  // with a majority cluster would terminate here.
  MmRunConfig cfg(MmDomain::fig2());
  cfg.crashes = CrashPlan::none(5);
  for (const ProcId p : {2, 3, 4}) {
    cfg.crashes.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(0);
  }
  cfg.seed = 11;
  const auto r = run_mm(cfg);
  EXPECT_FALSE(r.decided_value.has_value());
  EXPECT_TRUE(r.agreement_ok && r.validity_ok);
}

TEST(MmConsensus, RejectsCrashPlanOfTheWrongSize) {
  MmRunConfig cfg(MmDomain::fig2());
  cfg.crashes = CrashPlan::none(3);
  EXPECT_THROW(run_mm(cfg), ContractViolation);
}

}  // namespace
}  // namespace hyco
