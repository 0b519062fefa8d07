// Tests of the multivalued consensus extension (bit-by-bit reduction of the
// proposer's index over embedded hybrid binary instances): agreement,
// validity (the decided value must be a proposed value — the acid test of
// the prefix-filtered reduction), termination, inherited one-for-all fault
// tolerance, the wait for VALUE(d) after the index is decided, and the
// instance-multiplexing plumbing.
#include <gtest/gtest.h>

#include <vector>

#include "core/multivalued_runner.h"
#include "util/assert.h"
#include "workload/failure_patterns.h"

namespace hyco {
namespace {

/// INetwork stub that records broadcasts instead of delivering them, so a
/// test can hand-feed one process the messages it chooses.
class RecordingNetwork final : public INetwork {
 public:
  explicit RecordingNetwork(ProcId n) : n_(n) {}
  void send(ProcId /*from*/, ProcId /*to*/, const Message& /*m*/) override {}
  void broadcast(ProcId /*from*/, const Message& m) override {
    broadcasts.push_back(m);
  }
  [[nodiscard]] ProcId n() const override { return n_; }

  std::vector<Message> broadcasts;

 private:
  ProcId n_;
};

Message decide_bit(InstanceId instance, int bit) {
  Message m = Message::decide_msg(estimate_from_bit(bit));
  m.instance = instance;
  return m;
}

TEST(MultiValued, IndexBitsCoverEveryProcess) {
  EXPECT_EQ(MultiValuedProcess::index_bits(1), 1);
  EXPECT_EQ(MultiValuedProcess::index_bits(2), 1);
  EXPECT_EQ(MultiValuedProcess::index_bits(3), 2);
  EXPECT_EQ(MultiValuedProcess::index_bits(4), 2);
  EXPECT_EQ(MultiValuedProcess::index_bits(5), 3);
  EXPECT_EQ(MultiValuedProcess::index_bits(8), 3);
  EXPECT_EQ(MultiValuedProcess::index_bits(9), 4);
}

TEST(MultiValued, DecidedIndexWaitsForItsValue) {
  // n = 4: two index bits, VALUE/MULTIDECIDE at instance 0, bit k at k + 1.
  const auto layout = ClusterLayout::from_sizes({2, 2});
  RecordingNetwork net(4);
  MemoryPool pool(4, ConsensusImpl::Cas);
  CommonCoin coin(1);
  MultiValuedProcess p(0, layout, net, pool, coin, /*max_rounds_per_bit=*/100);
  p.start(100);  // p0 knows only origin 0, so it proposes index bit 0

  // The peers decide MSB = 1: index 2 or 3, neither delivered here yet.
  p.on_message(3, decide_bit(1, 1));
  // The LSB instance cannot start without a matching origin; its DECIDE
  // waits in the backlog.
  p.on_message(3, decide_bit(2, 1));
  EXPECT_FALSE(p.decided());

  // VALUE(2) matches the prefix: p0 runs the LSB instance, proposing 0,
  // and the backlogged DECIDE settles it at 1 — index 3, still unknown.
  p.on_message(2, Message::value_msg(2, 222));
  EXPECT_FALSE(p.decided()) << "decided before VALUE(3) arrived";

  p.on_message(1, Message::value_msg(3, 333));
  ASSERT_TRUE(p.decided());
  EXPECT_EQ(*p.decision(), 333u);
  ASSERT_FALSE(net.broadcasts.empty());
  const Message& last = net.broadcasts.back();
  EXPECT_EQ(last.kind, MsgKind::MultiDecide);
  EXPECT_EQ(last.instance, 0);
  EXPECT_EQ(last.value, 333u);
}

TEST(MultiValued, UnanimousDecidesProposal) {
  MultiRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.width = 16;
  cfg.inputs = std::vector<std::uint64_t>(7, 0xBEEF);
  cfg.seed = 1;
  const auto r = run_multivalued(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.decided_value, 0xBEEF);
}

TEST(MultiValued, TwoDistinctValues) {
  MultiRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.width = 8;
  cfg.inputs = {3, 200, 3, 200, 3, 200, 3};
  cfg.seed = 2;
  const auto r = run_multivalued(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_TRUE(*r.decided_value == 3 || *r.decided_value == 200);
}

TEST(MultiValued, AllDistinctValuesStillValid) {
  // The hard case for bit-by-bit reductions: decided bits must never
  // "frankenstein" a value nobody proposed.
  MultiRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.width = 16;
  cfg.inputs = {11, 222, 3333, 44, 5555, 666, 7777};
  cfg.seed = 3;
  const auto r = run_multivalued(cfg);
  ASSERT_TRUE(r.success());
  bool proposed = false;
  for (const auto v : cfg.inputs) proposed |= (v == *r.decided_value);
  EXPECT_TRUE(proposed) << "decided " << *r.decided_value;
}

TEST(MultiValued, WidthOneIsBinaryConsensus) {
  MultiRunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.width = 1;
  cfg.inputs = {0, 1, 0, 1};
  cfg.seed = 4;
  const auto r = run_multivalued(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_LE(*r.decided_value, 1u);
}

TEST(MultiValued, FullWidth64) {
  MultiRunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.width = 64;
  cfg.inputs = {0xDEADBEEFCAFEF00DULL, 0x123456789ABCDEF0ULL,
                0xDEADBEEFCAFEF00DULL, 0x123456789ABCDEF0ULL};
  cfg.seed = 5;
  const auto r = run_multivalued(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_TRUE(*r.decided_value == 0xDEADBEEFCAFEF00DULL ||
              *r.decided_value == 0x123456789ABCDEF0ULL);
}

TEST(MultiValued, ProposalMustFitWidth) {
  // run_multivalued checks given inputs against the input domain before
  // any process starts.
  MultiRunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.width = 4;
  cfg.inputs = {16, 0, 0, 0};  // 16 needs 5 bits
  EXPECT_THROW(run_multivalued(cfg), ContractViolation);
}

TEST(MultiValued, OneForAllSurvivesMajorityCrash) {
  // The inherited paper property: 6 of 7 crash, the lone survivor of the
  // majority cluster still drives every index bit to decision.
  const auto layout = ClusterLayout::fig1_right();
  Rng rng(42);
  const auto scenario =
      failure_patterns::majority_crash_one_survivor(layout, rng, 200);
  MultiRunConfig cfg(layout);
  cfg.width = 8;
  cfg.inputs = {10, 20, 30, 40, 50, 60, 70};
  cfg.crashes = scenario.plan;
  cfg.seed = 6;
  const auto r = run_multivalued(cfg);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.agreement_ok && r.validity_ok);
}

TEST(MultiValued, IndulgentWithoutCoveringSet) {
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});
  Rng rng(43);
  const auto scenario = failure_patterns::kill_covering_set(layout, rng, 0);
  MultiRunConfig cfg(layout);
  cfg.width = 8;
  cfg.inputs = {1, 2, 3, 4, 5, 6, 7};
  cfg.crashes = scenario.plan;
  cfg.seed = 7;
  cfg.max_rounds_per_bit = 60;
  const auto r = run_multivalued(cfg);
  EXPECT_TRUE(r.agreement_ok && r.validity_ok);
  EXPECT_EQ(r.stop, StopReason::Quiescent);
}

TEST(MultiValued, UsesOneMemoryNamespacePerBit) {
  MultiRunConfig cfg(ClusterLayout::from_sizes({2, 2}));
  cfg.width = 8;
  cfg.inputs = {100, 100, 100, 100};
  cfg.seed = 8;
  const auto r = run_multivalued(cfg);
  ASSERT_TRUE(r.success());
  // bit_width(n - 1) = 2 index-bit instances, m = 2 memories per instance,
  // at least 1 object per memory-round.
  EXPECT_GE(r.consensus_objects, 2u * 2u);

  // The instances decide the proposer index, so the value domain does not
  // change the run: the same inputs at width 64 replay it exactly.
  cfg.width = 64;
  const auto wide = run_multivalued(cfg);
  ASSERT_TRUE(wide.success());
  EXPECT_EQ(wide.consensus_objects, r.consensus_objects);
  EXPECT_EQ(wide.events, r.events);
  EXPECT_EQ(wide.decided_value, r.decided_value);
}

class MultiValuedSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MultiValuedSweep, RandomInputsAlwaysSafeAndLive) {
  const auto [shape, seed] = GetParam();
  const auto layout = shape == 0   ? ClusterLayout::from_sizes({2, 3, 2})
                      : shape == 1 ? ClusterLayout::singletons(5)
                                   : ClusterLayout::even(9, 3);
  MultiRunConfig cfg(layout);
  cfg.width = 12;
  cfg.seed = seed;  // inputs derived pseudorandomly from the seed
  const auto r = run_multivalued(cfg);
  ASSERT_TRUE(r.agreement_ok) << "seed " << seed;
  ASSERT_TRUE(r.validity_ok) << "seed " << seed;
  EXPECT_TRUE(r.all_correct_decided) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiValuedSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Range<std::uint64_t>(1, 13)));

TEST(MultiValued, MidBroadcastCrashesStaySafe) {
  const auto layout = ClusterLayout::from_sizes({3, 3, 3});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(mix64(seed, 0xAB));
    const auto scenario = failure_patterns::mid_broadcast(layout, 2, 1, rng);
    MultiRunConfig cfg(layout);
    cfg.width = 8;
    cfg.crashes = scenario.plan;
    cfg.seed = seed;
    const auto r = run_multivalued(cfg);
    EXPECT_TRUE(r.agreement_ok && r.validity_ok) << "seed " << seed;
    if (scenario.hybrid_should_terminate) {
      EXPECT_TRUE(r.all_correct_decided) << "seed " << seed;
    }
  }
}

TEST(MultiValued, RejectsCrashPlanOfTheWrongSize) {
  MultiRunConfig cfg(ClusterLayout::even(8, 2));
  cfg.crashes = CrashPlan::none(3);
  EXPECT_THROW(run_multivalued(cfg), ContractViolation);
}

}  // namespace
}  // namespace hyco
