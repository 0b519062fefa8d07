// Unit tests for the wire message struct (net/message.h), plus the
// execution trace (sim/trace.h).
#include <gtest/gtest.h>

#include <sstream>

#include "net/message.h"
#include "sim/trace.h"

namespace hyco {
namespace {

TEST(Message, FactoriesPopulateFields) {
  const auto p = Message::phase_msg(7, Phase::Two, Estimate::One);
  EXPECT_EQ(p.kind, MsgKind::Phase);
  EXPECT_EQ(p.round, 7);
  EXPECT_EQ(p.phase, Phase::Two);
  EXPECT_EQ(p.est, Estimate::One);

  const auto d = Message::decide_msg(Estimate::Zero);
  EXPECT_EQ(d.kind, MsgKind::Decide);
  EXPECT_EQ(d.est, Estimate::Zero);
}

TEST(Message, StreamOperatorMentionsContents) {
  std::ostringstream p;
  p << Message::phase_msg(3, Phase::One, Estimate::Bot);
  EXPECT_EQ(p.str(), "PHASE(r=3,ph1,est=bot)");
  std::ostringstream d;
  d << Message::decide_msg(Estimate::One);
  EXPECT_EQ(d.str(), "DECIDE(1)");
}

TEST(Trace, RecordsAndDumps) {
  Trace t;
  t.record({.at = 5, .kind = TraceKind::Decide, .proc = 2, .round = 4});
  t.record({.at = 9, .kind = TraceKind::Crash, .proc = 3, .args = {2, 8}});
  EXPECT_EQ(t.size(), 2u);
  std::ostringstream os;
  t.dump(os);
  EXPECT_EQ(os.str(),
            "5ns\tdecide\tp2\tr=4\n"
            "9ns\tcrash\tp3\tmid-broadcast, delivered to 2 of 8\n");
}

TEST(Trace, CapacityBoundsMemory) {
  Trace t(3);
  for (int i = 0; i < 10; ++i) {
    t.record({.at = i, .kind = TraceKind::Decide, .proc = 0});
  }
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.recorded(), 10u);
  // Oldest surviving record after the ring wrapped: run 7 of 0..9.
  SimTime first = -1;
  bool got_first = false;
  t.for_each([&](const TraceRecord& r) {
    if (!got_first) {
      first = r.at;
      got_first = true;
    }
  });
  EXPECT_EQ(first, 7);
}

TEST(Estimate, HelpersRoundtrip) {
  EXPECT_TRUE(is_binary(Estimate::Zero));
  EXPECT_TRUE(is_binary(Estimate::One));
  EXPECT_FALSE(is_binary(Estimate::Bot));
  EXPECT_EQ(estimate_from_bit(0), Estimate::Zero);
  EXPECT_EQ(estimate_from_bit(1), Estimate::One);
  EXPECT_EQ(estimate_to_bit(Estimate::Zero), 0);
  EXPECT_EQ(estimate_to_bit(Estimate::One), 1);
  EXPECT_EQ(estimate_index(Estimate::Bot), 2u);
}

}  // namespace
}  // namespace hyco
