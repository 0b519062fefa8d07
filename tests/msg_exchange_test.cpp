// Unit tests for the Algorithm 1 communication pattern: cluster-closure
// crediting ("one for all"), the majority-coverage wait predicate, and the
// phase-2 (value, ⊥) handling.
#include <gtest/gtest.h>

#include <vector>

#include "core/msg_exchange.h"
#include "util/assert.h"

namespace hyco {
namespace {

/// INetwork stub that records broadcasts instead of delivering them.
class RecordingNetwork final : public INetwork {
 public:
  explicit RecordingNetwork(ProcId n) : n_(n) {}
  void send(ProcId from, ProcId to, const Message& m) override {
    sends.push_back({from, to, m});
  }
  void broadcast(ProcId from, const Message& m) override {
    broadcasts.push_back({from, m});
  }
  [[nodiscard]] ProcId n() const override { return n_; }
  [[nodiscard]] bool crashed(ProcId /*p*/) const override { return false; }

  struct Send {
    ProcId from, to;
    Message m;
  };
  struct Broadcast {
    ProcId from;
    Message m;
  };
  std::vector<Send> sends;
  std::vector<Broadcast> broadcasts;

 private:
  ProcId n_;
};

TEST(MsgExchange, BeginBroadcastsThePhaseMessage) {
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::One);
  ASSERT_EQ(net.broadcasts.size(), 1u);
  EXPECT_EQ(net.broadcasts[0].from, 0);
  EXPECT_EQ(net.broadcasts[0].m,
            Message::phase_msg(1, Phase::One, Estimate::One));
  EXPECT_TRUE(ex.active());
  EXPECT_EQ(ex.round(), 1);
  EXPECT_EQ(ex.exchanges_started(), 1u);
}

TEST(MsgExchange, OneMessageFromMajorityClusterSatisfiesPredicate) {
  // Layout {0},{1..4},{5,6}: one message from p2 credits all of P[1]
  // (4 of 7 processes) — the "one for all" closure.
  const auto layout = ClusterLayout::fig1_right();
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  EXPECT_FALSE(ex.satisfied());
  EXPECT_TRUE(ex.credit(2, Estimate::One));
  EXPECT_EQ(ex.support(Estimate::One), 4);
  EXPECT_TRUE(ex.satisfied());
}

TEST(MsgExchange, SmallClustersMustAccumulate) {
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});  // n = 7
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  EXPECT_FALSE(ex.credit(0, Estimate::Zero));  // covers {0,1}: 2
  EXPECT_FALSE(ex.credit(1, Estimate::Zero));  // same cluster: still 2
  EXPECT_TRUE(ex.credit(6, Estimate::One));    // + {5,6}: 4 > 3.5
  EXPECT_EQ(ex.support(Estimate::Zero), 2);
  EXPECT_EQ(ex.support(Estimate::One), 2);
}

TEST(MsgExchange, SingletonLayoutIsPlainCounting) {
  const auto layout = ClusterLayout::singletons(5);
  RecordingNetwork net(5);
  MsgExchange ex(layout, net, 0);
  ex.begin(2, Phase::One, Estimate::One);
  EXPECT_FALSE(ex.credit(0, Estimate::One));
  EXPECT_FALSE(ex.credit(1, Estimate::Zero));
  EXPECT_TRUE(ex.credit(2, Estimate::One));  // 3 distinct > 2.5
  EXPECT_EQ(ex.support(Estimate::One), 2);
}

TEST(MsgExchange, PhaseTwoCountsBotTowardCoverage) {
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 3);
  ex.begin(1, Phase::Two, Estimate::Bot);
  EXPECT_FALSE(ex.credit(0, Estimate::Bot));   // 2
  EXPECT_TRUE(ex.credit(2, Estimate::One));    // 2 + 3 = 5 > 3.5
  EXPECT_EQ(ex.values_received(), estimate_set({Estimate::One, Estimate::Bot}));
}

TEST(MsgExchange, PhaseOneIgnoresBotForCoverage) {
  // In phase 1 (a,b) = (0,1): ⊥ should never be sent, and the predicate
  // only unions the 0/1 supporter sets.
  const auto layout = ClusterLayout::from_sizes({4, 3});
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  EXPECT_FALSE(ex.credit(5, Estimate::Bot));  // credited to sup[⊥], no cover
  EXPECT_FALSE(ex.satisfied());
  EXPECT_TRUE(ex.credit(0, Estimate::Zero));  // {0..3}: 4 > 3.5
}

TEST(MsgExchange, DuplicateCreditsFromSameClusterAreIdempotent) {
  const auto layout = ClusterLayout::from_sizes({4, 3});
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  (void)ex.credit(1, Estimate::Zero);
  (void)ex.credit(2, Estimate::Zero);
  EXPECT_EQ(ex.support(Estimate::Zero), 4);  // cluster counted once
}

TEST(MsgExchange, BeginResetsState) {
  const auto layout = ClusterLayout::fig1_right();
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  (void)ex.credit(2, Estimate::One);
  EXPECT_TRUE(ex.satisfied());
  ex.begin(1, Phase::Two, Estimate::Bot);
  EXPECT_FALSE(ex.satisfied());
  EXPECT_EQ(ex.support(Estimate::One), 0);
  EXPECT_EQ(ex.phase(), Phase::Two);
}

TEST(MsgExchange, CreditOutsideActiveExchangeThrows) {
  const auto layout = ClusterLayout::singletons(3);
  RecordingNetwork net(3);
  MsgExchange ex(layout, net, 0);
  EXPECT_THROW(ex.credit(1, Estimate::Zero), ContractViolation);
}

TEST(MsgExchange, RoundsStartAtOne) {
  const auto layout = ClusterLayout::singletons(3);
  RecordingNetwork net(3);
  MsgExchange ex(layout, net, 0);
  EXPECT_THROW(ex.begin(0, Phase::One, Estimate::Zero), ContractViolation);
}

}  // namespace
}  // namespace hyco
