// Unit tests for the wire message struct and its binary codec
// (net/message.h), plus the execution trace (sim/trace.h).
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

// Codec roundtrip across the full message domain.
class MessageRoundtrip
    : public ::testing::TestWithParam<std::tuple<int, Round, int, int>> {};

TEST_P(MessageRoundtrip, EncodeDecodeIdentity) {
  const auto [kind, round, phase, est] = GetParam();
  Message m;
  m.kind = static_cast<MsgKind>(kind);
  m.round = round;
  m.phase = static_cast<Phase>(phase);
  m.est = static_cast<Estimate>(est);
  const auto bytes = encode(m);
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, MessageRoundtrip,
    ::testing::Combine(::testing::Values(1, 2),            // kind
                       ::testing::Values(0, 1, 7, 100000,  // round
                                         2147483647),
                       ::testing::Values(1, 2),            // phase
                       ::testing::Values(0, 1, 2)));       // estimate

TEST(MessageCodec, RejectsWrongSize) {
  std::vector<std::uint8_t> small(kMessageWireSize - 1, 0);
  EXPECT_FALSE(decode(small).has_value());
  std::vector<std::uint8_t> big(kMessageWireSize + 1, 0);
  EXPECT_FALSE(decode(big).has_value());
}

TEST(MessageCodec, RejectsBadTags) {
  auto bytes = encode(Message::phase_msg(1, Phase::One, Estimate::Zero));
  bytes[0] = 9;  // bad kind
  EXPECT_FALSE(decode(bytes).has_value());
  bytes = encode(Message::phase_msg(1, Phase::One, Estimate::Zero));
  bytes[9] = 3;  // bad phase
  EXPECT_FALSE(decode(bytes).has_value());
  bytes = encode(Message::phase_msg(1, Phase::One, Estimate::Zero));
  bytes[10] = 7;  // bad estimate
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(MessageCodec, RoundtripsExtensionKinds) {
  const Message val = Message::value_msg(3, 0xDEADBEEFCAFEULL);
  const auto back_val = decode(encode(val));
  ASSERT_TRUE(back_val.has_value());
  EXPECT_EQ(*back_val, val);

  const Message md = Message::multi_decide_msg(42);
  const auto back_md = decode(encode(md));
  ASSERT_TRUE(back_md.has_value());
  EXPECT_EQ(*back_md, md);

  Message reg;
  reg.kind = MsgKind::RegAck;
  reg.instance = 77;
  reg.round = 12;
  reg.origin = 4;
  reg.value = 0xFFFFFFFFFFFFFFFFULL;
  const auto back_reg = decode(encode(reg));
  ASSERT_TRUE(back_reg.has_value());
  EXPECT_EQ(*back_reg, reg);
}

TEST(MessageCodec, InstanceStampSurvivesRoundtrip) {
  Message m = Message::phase_msg(5, Phase::Two, Estimate::One);
  m.instance = 13;
  const auto back = decode(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->instance, 13);
}

TEST(Trace, DisabledRecordsNothing) {
  Trace t;
  t.record({.at = 1, .kind = TraceKind::Send, .proc = 0});
  EXPECT_EQ(t.size(), 0u);
}

TEST(Trace, EnabledRecordsAndDumps) {
  Trace t;
  t.enable(true);
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
  t.enable(true);
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
