// Unit tests for delay models and the discrete-event network, including the
// crash semantics of Section II-A: reliable channels, unreliable broadcast
// under sender crash (arbitrary subset), no steps after a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/cluster_layout.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "scenario/engine.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {
namespace {

Message msg() { return Message::phase_msg(1, Phase::One, Estimate::Zero); }

TEST(DelayModels, ConstantAlwaysFixed) {
  ConstantDelay d(42);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.delay(0, 1, msg(), 0, rng), 42);
  }
}

TEST(DelayModels, UniformWithinRange) {
  UniformDelay d(10, 20);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto v = d.delay(0, 1, msg(), 0, rng);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 20);
  }
}

TEST(DelayModels, UniformRejectsBadRange) {
  EXPECT_THROW(UniformDelay(20, 10), ContractViolation);
  EXPECT_THROW(UniformDelay(-5, 10), ContractViolation);
}

TEST(DelayModels, ExponentialRespectsFloor) {
  ExponentialDelay d(100.0, 7);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_GE(d.delay(0, 1, msg(), 0, rng), 7);
  }
}

TEST(DelayModels, AdversarialSeesMessage) {
  AdversarialDelay d([](ProcId, ProcId, const Message& m, SimTime, Rng&) {
    return m.est == Estimate::Zero ? SimTime{1000} : SimTime{1};
  });
  Rng rng(4);
  EXPECT_EQ(d.delay(0, 1, msg(), 0, rng), 1000);
  EXPECT_EQ(d.delay(0, 1, Message::phase_msg(1, Phase::One, Estimate::One), 0,
                    rng),
            1);
}

TEST(DelayModels, AdversarialNegativeDelayRejected) {
  AdversarialDelay d(
      [](ProcId, ProcId, const Message&, SimTime, Rng&) { return SimTime{-1}; });
  Rng rng(5);
  EXPECT_THROW(d.delay(0, 1, msg(), 0, rng), ContractViolation);
}

TEST(DelayModels, FactoryBuildsConfiguredKind) {
  Rng rng(6);
  auto c = make_delay_model(DelayConfig::constant_of(9));
  EXPECT_EQ(c->delay(0, 1, msg(), 0, rng), 9);
  auto u = make_delay_model(DelayConfig::uniform(1, 2));
  const auto v = u->delay(0, 1, msg(), 0, rng);
  EXPECT_TRUE(v == 1 || v == 2);
  auto e = make_delay_model(DelayConfig::exponential(50));
  EXPECT_GE(e->delay(0, 1, msg(), 0, rng), 1);
}

struct NetFixture {
  explicit NetFixture(ProcId n, const CrashPlan* plan = nullptr)
      : sim(7), delay(10), tracker(static_cast<std::size_t>(n)),
        net(sim, delay, tracker, n, plan) {
    net.set_deliver([this](ProcId to, ProcId from, const Message& m) {
      deliveries.push_back({to, from, m});
    });
  }
  struct Delivery {
    ProcId to;
    ProcId from;
    Message m;
  };
  Simulator sim;
  ConstantDelay delay;
  CrashTracker tracker;
  SimNetwork net;
  std::vector<Delivery> deliveries;
};

TEST(SimNetwork, DeliversPointToPoint) {
  NetFixture f(3);
  f.net.send(0, 2, msg());
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].to, 2);
  EXPECT_EQ(f.deliveries[0].from, 0);
  EXPECT_EQ(f.net.stats().delivered, 1u);
}

TEST(SimNetwork, BroadcastReachesEveryoneIncludingSelf) {
  NetFixture f(4);
  f.net.broadcast(1, msg());
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 4u);
  bool self_delivery = false;
  for (const auto& d : f.deliveries) self_delivery |= (d.to == 1);
  EXPECT_TRUE(self_delivery);
  EXPECT_EQ(f.net.stats().broadcasts, 1u);
}

TEST(SimNetwork, CrashedSenderDropsTraffic) {
  NetFixture f(3);
  f.tracker.crash(0, 0);
  f.net.send(0, 1, msg());
  f.net.broadcast(0, msg());
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_EQ(f.net.stats().dropped_sender_crashed, 2u);
}

TEST(SimNetwork, CrashedReceiverDropsAtDeliveryTime) {
  NetFixture f(2);
  f.net.send(0, 1, msg());
  // Crash the receiver before the (t=10) delivery fires.
  f.sim.schedule_at(5, [&] { f.tracker.crash(1, 5); });
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_EQ(f.net.stats().dropped_receiver_crashed, 1u);
}

TEST(SimNetwork, InFlightMessagesSurviveSenderCrash) {
  // A message sent BEFORE the crash is still delivered (crash stops future
  // steps, it does not retract messages in transit).
  NetFixture f(2);
  f.net.send(0, 1, msg());
  f.sim.schedule_at(1, [&] { f.tracker.crash(0, 1); });
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 1u);
}

TEST(SimNetwork, MidBroadcastCrashDeliversSubsetThenHalts) {
  CrashPlan plan = CrashPlan::none(5);
  plan.specs[2] = CrashSpec::on_broadcast(1, 2);  // 2nd broadcast, 2 receivers
  NetFixture f(5, &plan);
  f.net.broadcast(2, msg());  // broadcast #0: full
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 5u);
  f.deliveries.clear();

  f.net.broadcast(2, msg());  // broadcast #1: partial, then crash
  f.sim.run();
  // The arbitrary 2-element subset may include the (now crashed) sender
  // itself, whose self-delivery is then dropped — so 1 or 2 live deliveries.
  EXPECT_GE(f.deliveries.size(), 1u);
  EXPECT_LE(f.deliveries.size(), 2u);
  EXPECT_TRUE(f.tracker.is_crashed(2));

  const auto after_partial = f.deliveries.size();
  f.net.broadcast(2, msg());  // dead: nothing flows
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), after_partial);
}

TEST(SimNetwork, MidBroadcastCrashCopiesCarryTheSendersMessage) {
  // Every copy a crashing broadcast schedules shares its one payload: each
  // delivered copy carries the sender's message and id. The sender's own
  // copy, if drawn, is dropped at its (now crashed) receiver.
  const Message m = Message::value_msg(3, 0xBEEF);
  CrashPlan plan = CrashPlan::none(7);
  plan.specs[3] = CrashSpec::on_broadcast(0, 4);
  NetFixture f(7, &plan);
  f.net.broadcast(3, m);
  f.sim.run();
  EXPECT_TRUE(f.tracker.is_crashed(3));
  EXPECT_EQ(f.net.stats().unicasts_sent, 4u);
  EXPECT_EQ(f.deliveries.size() + f.net.stats().dropped_receiver_crashed, 4u);
  for (const auto& d : f.deliveries) {
    EXPECT_EQ(d.from, 3);
    EXPECT_EQ(d.m, m);
    EXPECT_NE(d.to, 3);
  }
}

TEST(SimNetwork, MidBroadcastCrashToNoReceiverDeliversNothing) {
  CrashPlan plan = CrashPlan::none(4);
  plan.specs[1] = CrashSpec::on_broadcast(0, 0);
  NetFixture f(4, &plan);
  f.net.broadcast(1, msg());
  f.sim.run();
  EXPECT_TRUE(f.tracker.is_crashed(1));
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_EQ(f.net.stats().unicasts_sent, 0u);
  EXPECT_EQ(f.net.stats().broadcasts, 1u);
  // A live process's traffic still flows after the empty fan-out.
  f.net.broadcast(0, msg());
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 3u);
}

/// One side of the broadcast-vs-sends comparison: a network at n = 9 under
/// loss, duplication, reordering and a cut from the first cluster that
/// heals at 20,000, far past the default 2,048-day calendar window, so
/// held copies wait in the overflow heap — or, with `faults` off, the
/// same network over the bare uniform delay and no scenario. Every event
/// is traced.
struct ScenarioTwin {
  static constexpr ProcId kN = 9;
  static constexpr SimTime kHeal = 20'000;

  static ScenarioConfig scenario() {
    ScenarioConfig cfg;
    cfg.link.loss = 0.2;
    cfg.link.dup = 0.2;
    cfg.link.reorder_max = 100;
    PartitionSpec cut;
    cut.kind = PartitionSpec::Kind::Clusters;
    cut.ids = {0};
    cut.start = 0;
    cut.heal = kHeal;
    cfg.partitions.push_back(cut);
    return cfg;
  }

  explicit ScenarioTwin(bool faults = true)
      : sim(11),
        engine(scenario(), ClusterLayout::even(kN, 3),
               make_delay_model(DelayConfig::uniform(50, 150))),
        plain(50, 150),
        tracker(static_cast<std::size_t>(kN)),
        trace(1 << 14),
        net(sim, faults ? engine.channel() : plain, tracker, kN, nullptr,
            &trace) {
    if (faults) net.set_scenario(&engine);
    net.set_deliver([this](ProcId to, ProcId from, const Message& m) {
      log.push_back({sim.now(), from, to, m});
    });
  }

  struct Delivery {
    SimTime at;
    ProcId from;
    ProcId to;
    Message m;
    bool operator==(const Delivery&) const = default;
  };

  /// Each process's message in wave `w`.
  static Message wave_msg(ProcId p, int w) {
    return Message::value_msg(p, static_cast<std::uint64_t>(100 * w + p));
  }

  std::vector<TraceRecord> records() const {
    std::vector<TraceRecord> out;
    trace.for_each([&out](const TraceRecord& r) { out.push_back(r); });
    return out;
  }

  Simulator sim;
  ScenarioEngine engine;
  UniformDelay plain;  ///< the delay model when faults are off
  CrashTracker tracker;
  Trace trace;
  SimNetwork net;
  std::vector<Delivery> log;
};

/// Sends two waves, at 0 and 5,000, from timers: every process of `bcast`
/// broadcasts its wave message, and every process of `sends` sends it to
/// each receiver in turn. Then runs both to quiescence and checks that
/// they delivered and traced the same traffic: the same delivery log, the
/// same trace records with their message ids, and the same stats but for
/// the broadcast count.
void expect_broadcasts_match_sends(ScenarioTwin& bcast, ScenarioTwin& sends) {
  constexpr ProcId n = ScenarioTwin::kN;
  for (int w = 0; w < 2; ++w) {
    const SimTime at = w == 0 ? 0 : 5'000;
    bcast.sim.schedule_at(at, [&bcast, w] {
      for (ProcId p = 0; p < n; ++p) {
        bcast.net.broadcast(p, ScenarioTwin::wave_msg(p, w));
      }
    });
    sends.sim.schedule_at(at, [&sends, w] {
      for (ProcId p = 0; p < n; ++p) {
        for (ProcId to = 0; to < n; ++to) {
          sends.net.send(p, to, ScenarioTwin::wave_msg(p, w));
        }
      }
    });
  }
  bcast.sim.run();
  sends.sim.run();

  EXPECT_EQ(bcast.log, sends.log);
  EXPECT_EQ(bcast.records(), sends.records());
  EXPECT_LT(bcast.trace.recorded(), bcast.trace.capacity());  // no wrap
  const NetStats& a = bcast.net.stats();
  const NetStats& b = sends.net.stats();
  EXPECT_EQ(a.broadcasts, 2u * n);
  EXPECT_EQ(b.broadcasts, 0u);
  EXPECT_EQ(a.unicasts_sent, b.unicasts_sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped_sender_crashed, b.dropped_sender_crashed);
  EXPECT_EQ(a.dropped_receiver_crashed, b.dropped_receiver_crashed);
  EXPECT_EQ(a.dropped_partitioned, b.dropped_partitioned);
  EXPECT_EQ(a.dropped_lost, b.dropped_lost);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.held_partitioned, b.held_partitioned);
}

TEST(SimNetwork, BroadcastMatchesSendsUnderScenarioFaults) {
  // A broadcast stages one payload for all of its copies; n sends stage
  // one each. Under per-copy loss, duplication, reordering and a healing
  // cut, both must draw, schedule, hold and deliver the same copies. The
  // second wave goes out mid-cut, behind the first wave's held copies.
  ScenarioTwin bcast;
  ScenarioTwin sends;
  expect_broadcasts_match_sends(bcast, sends);
  const NetStats& a = bcast.net.stats();
  // The scenario did each kind of work, and held copies arrived after the
  // heal.
  EXPECT_GT(a.dropped_lost, 0u);
  EXPECT_GT(a.duplicated, 0u);
  EXPECT_GT(a.held_partitioned, 0u);
  ASSERT_FALSE(bcast.log.empty());
  EXPECT_GE(bcast.log.back().at, ScenarioTwin::kHeal);
}

TEST(SimNetwork, BroadcastMatchesSendsFaultFreeTraced) {
  // Without a scenario, a traced broadcast still draws all of its delays in
  // one DelayModel::draw() call and files all of its copies in one push,
  // then records its Sends; each send draws, files and records one copy.
  // Both must give the same delays, seqs, deliveries and records, and each
  // Send record's message id must name the delivery it became.
  ScenarioTwin bcast(false);
  ScenarioTwin sends(false);
  expect_broadcasts_match_sends(bcast, sends);
  constexpr auto kCopies = std::size_t{2} * ScenarioTwin::kN * ScenarioTwin::kN;
  EXPECT_EQ(bcast.log.size(), kCopies);
  EXPECT_EQ(bcast.net.stats().unicasts_sent, kCopies);
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> delivered;
  for (const TraceRecord& r : bcast.records()) {
    if (r.kind == TraceKind::Send) sent.push_back(r.mid);
    if (r.kind == TraceKind::Deliver) delivered.push_back(r.mid);
  }
  EXPECT_EQ(sent.size(), kCopies);
  std::sort(sent.begin(), sent.end());
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(sent, delivered);
}

/// A network at n = 6 whose p1 crashes inside its first broadcast after
/// reaching two receivers, with every delivery logged (as in NetFixture)
/// through a typed SimNetwork::Receiver or, with `typed` off, through the
/// set_deliver adapter. Each process that receives a wave-0 message
/// broadcasts a wave-1 reply from its handler.
struct HandlerCrashTwin final : SimNetwork::Receiver {
  static constexpr ProcId kN = 6;

  static CrashPlan plan() {
    CrashPlan p = CrashPlan::none(kN);
    p.specs[1] = CrashSpec::on_broadcast(0, 2);
    return p;
  }

  explicit HandlerCrashTwin(bool typed)
      : sim(5), delay(10), tracker(kN), crashes(plan()),
        net(sim, delay, tracker, kN, &crashes) {
    if (typed) {
      net.set_receiver(*this);
    } else {
      net.set_deliver([this](ProcId to, ProcId from, const Message& m) {
        handle(to, from, m);
      });
    }
  }

  void receive(const TickItem* items, std::size_t count) override {
    net.for_each_live(items, count,
                      [this](ProcId to, ProcId from, const Message& m) {
                        handle(to, from, m);
                      });
  }

  void handle(ProcId to, ProcId from, const Message& m) {
    log.push_back({sim.now(), to, from, m});
    if (m.value == 0) net.broadcast(to, Message::value_msg(to, 1));
  }

  struct Delivery {
    SimTime at;
    ProcId to;
    ProcId from;
    Message m;
    bool operator==(const Delivery&) const = default;
  };

  Simulator sim;
  ConstantDelay delay;
  CrashTracker tracker;
  CrashPlan crashes;
  SimNetwork net;
  std::vector<Delivery> log;
};

TEST(SimNetwork, HandlerCrashDropsTheRestOfItsTickRun) {
  // p0 and p2 broadcast at 0, so all twelve copies land in one tick run at
  // 10, p0's first. p1's handler of p0's message is its first broadcast,
  // a scripted mid-broadcast crash: p2's copy to p1, later in the same run,
  // must be dropped and counted, and the typed receiver must see exactly
  // what the set_deliver adapter sees.
  const auto run = [](bool typed) {
    auto twin = std::make_unique<HandlerCrashTwin>(typed);
    twin->net.broadcast(0, Message::value_msg(0, 0));
    twin->net.broadcast(2, Message::value_msg(2, 0));
    twin->sim.run();
    return twin;
  };
  const auto typed = run(true);
  const auto adapter = run(false);
  EXPECT_EQ(typed->log, adapter->log);
  const NetStats& a = typed->net.stats();
  const NetStats& b = adapter->net.stats();
  EXPECT_EQ(a.unicasts_sent, b.unicasts_sent);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped_sender_crashed, b.dropped_sender_crashed);
  EXPECT_EQ(a.dropped_receiver_crashed, b.dropped_receiver_crashed);

  ASSERT_TRUE(typed->tracker.is_crashed(1));
  const auto wave0 = [&](ProcId to, ProcId from) {
    return std::count_if(typed->log.begin(), typed->log.end(),
                         [&](const HandlerCrashTwin::Delivery& d) {
                           return d.at == 10 && d.to == to && d.from == from;
                         });
  };
  EXPECT_EQ(wave0(1, 0), 1);  // delivered: it fired the crash
  EXPECT_EQ(wave0(1, 2), 0);  // dropped later in the same run
  EXPECT_EQ(wave0(3, 2), 1);  // the rest of the run still flows
  // p1's second wave-0 copy and any of its own two crash copies to itself
  // are dropped at p1; everything else scheduled is delivered.
  EXPECT_GE(a.dropped_receiver_crashed, 1u);
  EXPECT_EQ(a.delivered + a.dropped_receiver_crashed, a.unicasts_sent);
  // Two wave-0 broadcasts of 6 copies; then two wave-1 replies of 6 from
  // each of the five processes that stay up, and crashed p1's 2 copies.
  EXPECT_EQ(a.unicasts_sent, 12u + 5u * 2 * 6 + 2);
}

TEST(SimNetwork, OutOfRangeIdsThrow) {
  NetFixture f(2);
  EXPECT_THROW(f.net.send(0, 5, msg()), ContractViolation);
  EXPECT_THROW(f.net.send(-1, 1, msg()), ContractViolation);
  EXPECT_THROW(f.net.broadcast(7, msg()), ContractViolation);
}

TEST(SimNetwork, StatsCountUnicasts) {
  NetFixture f(3);
  f.net.broadcast(0, msg());
  f.net.send(1, 2, msg());
  f.sim.run();
  EXPECT_EQ(f.net.stats().unicasts_sent, 4u);
  EXPECT_EQ(f.net.stats().delivered, 4u);
}

}  // namespace
}  // namespace hyco
