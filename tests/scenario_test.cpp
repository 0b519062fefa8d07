// Adversarial scenario subsystem (src/scenario/): spec parsing, the
// FaultyChannel decorator, the partition schedule, crash-recovery, and the
// end-to-end properties the paper's model promises under each fault class —
// partition-then-heal liveness, loss/duplication safety (agreement is never
// violated even when reliability is), recovery rejoin, and thread-count
// determinism of a faulty grid.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "exp/executor.h"
#include "exp/report.h"
#include "exp/spec.h"
#include "net/delay_model.h"
#include "scenario/engine.h"
#include "scenario/faulty_channel.h"
#include "scenario/partition.h"
#include "scenario/scenario.h"
#include "sim/crash.h"
#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {
namespace {

// ---- parsing ---------------------------------------------------------------

TEST(ScenarioParse, SimTimeUnits) {
  EXPECT_EQ(parse_sim_time("100"), 100);
  EXPECT_EQ(parse_sim_time("100ns"), 100);
  EXPECT_EQ(parse_sim_time("20us"), 20'000);
  EXPECT_EQ(parse_sim_time("5ms"), 5'000'000);
  EXPECT_EQ(parse_sim_time("2s"), 2'000'000'000);
  EXPECT_EQ(parse_sim_time("1.5us"), 1'500);
  EXPECT_THROW(parse_sim_time(""), ContractViolation);
  EXPECT_THROW(parse_sim_time("ms"), ContractViolation);
  EXPECT_THROW(parse_sim_time("5min"), ContractViolation);
  EXPECT_THROW(parse_sim_time("-5ms"), ContractViolation);
  EXPECT_THROW(parse_sim_time("inf"), ContractViolation);
  EXPECT_THROW(parse_sim_time("1e30"), ContractViolation);
  EXPECT_THROW(parse_sim_time("1e15s"), ContractViolation);
}

TEST(ScenarioParse, PartitionSpec) {
  const PartitionSpec p = parse_partition_spec("cluster:0-1@5ms..20ms");
  EXPECT_EQ(p.kind, PartitionSpec::Kind::Clusters);
  EXPECT_EQ(p.ids, (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(p.start, 5'000'000);
  EXPECT_EQ(p.heal, 20'000'000);
  EXPECT_EQ(p.to_string(), "cluster:0-1@5000000..20000000");

  const PartitionSpec q = parse_partition_spec("procs:0-3-7@0..never");
  EXPECT_EQ(q.kind, PartitionSpec::Kind::Procs);
  EXPECT_EQ(q.ids, (std::vector<std::int32_t>{0, 3, 7}));
  EXPECT_EQ(q.heal, kSimTimeNever);

  const PartitionSpec s = parse_partition_spec("split:2@10..20");
  EXPECT_EQ(s.kind, PartitionSpec::Kind::SplitCluster);
  EXPECT_EQ(s.ids, (std::vector<std::int32_t>{2}));

  EXPECT_THROW(parse_partition_spec("cluster:0-1"), ContractViolation);
  EXPECT_THROW(parse_partition_spec("bogus:0@1..2"), ContractViolation);
  EXPECT_THROW(parse_partition_spec("cluster:@1..2"), ContractViolation);
  EXPECT_THROW(parse_partition_spec("split:0-1@1..2"), ContractViolation);
  EXPECT_THROW(parse_partition_spec("cluster:0@20..10"), ContractViolation);
}

TEST(ScenarioParse, FlappingPartitionSpec) {
  // Windowless flapping: the square wave runs from t=0 forever.
  const PartitionSpec p = parse_partition_spec("cluster:0:flap=2ms:period=4ms");
  EXPECT_TRUE(p.flapping());
  EXPECT_EQ(p.flap, 2'000'000);
  EXPECT_EQ(p.period, 4'000'000);
  EXPECT_EQ(p.start, 0);
  EXPECT_EQ(p.heal, kSimTimeNever);
  EXPECT_EQ(p.to_string(), "cluster:0:flap=2000000:period=4000000@0..never");
  // to_string round-trips through the parser.
  const PartitionSpec rt = parse_partition_spec(p.to_string());
  EXPECT_EQ(rt.flap, p.flap);
  EXPECT_EQ(rt.period, p.period);
  EXPECT_EQ(rt.heal, p.heal);

  // Flapping inside an explicit window.
  const PartitionSpec w =
      parse_partition_spec("split:1:flap=1ms:period=3ms@5ms..50ms");
  EXPECT_EQ(w.kind, PartitionSpec::Kind::SplitCluster);
  EXPECT_EQ(w.start, 5'000'000);
  EXPECT_EQ(w.heal, 50'000'000);

  // flap without period, period <= flap, unknown keys: rejected.
  EXPECT_THROW(parse_partition_spec("cluster:0:flap=2ms"), ContractViolation);
  EXPECT_THROW(parse_partition_spec("cluster:0:period=2ms"),
               ContractViolation);
  EXPECT_THROW(parse_partition_spec("cluster:0:flap=2ms:period=2ms"),
               ContractViolation);
  EXPECT_THROW(parse_partition_spec("cluster:0:blink=2ms:period=4ms"),
               ContractViolation);
}

TEST(ScenarioParse, RecoverySpec) {
  const RecoverySpec r = parse_recovery_spec("3@2ms..8ms");
  EXPECT_FALSE(r.whole_cluster);
  EXPECT_EQ(r.id, 3);
  EXPECT_EQ(r.down_at, 2'000'000);
  EXPECT_EQ(r.up_at, 8'000'000);

  const RecoverySpec c = parse_recovery_spec("cluster:1@100..never");
  EXPECT_TRUE(c.whole_cluster);
  EXPECT_EQ(c.id, 1);
  EXPECT_EQ(c.up_at, kSimTimeNever);

  EXPECT_THROW(parse_recovery_spec("3"), ContractViolation);
  EXPECT_THROW(parse_recovery_spec("3@8ms..2ms"), ContractViolation);
  EXPECT_THROW(parse_recovery_spec("node:3@1..2"), ContractViolation);
}

TEST(ScenarioParse, LabelAndEmpty) {
  ScenarioConfig scn;
  EXPECT_TRUE(scn.empty());
  EXPECT_EQ(scn.label(), "none");
  scn.link.loss = 0.05;
  scn.partitions.push_back(parse_partition_spec("cluster:0-1@100..200"));
  EXPECT_FALSE(scn.empty());
  EXPECT_EQ(scn.label(), "loss=0.05,part=cluster:0-1@100..200");
}

TEST(ScenarioParse, SkewSpec) {
  const SkewSpec p = parse_skew_spec("proc:3:x4");
  EXPECT_FALSE(p.whole_cluster);
  EXPECT_EQ(p.id, 3);
  EXPECT_DOUBLE_EQ(p.factor, 4.0);
  EXPECT_EQ(p.to_string(), "proc:3:x4");

  const SkewSpec c = parse_skew_spec("cluster:0:x2.5");
  EXPECT_TRUE(c.whole_cluster);
  EXPECT_EQ(c.id, 0);
  EXPECT_DOUBLE_EQ(c.factor, 2.5);

  const SkewSpec fast = parse_skew_spec("proc:1:x0.5");
  EXPECT_DOUBLE_EQ(fast.factor, 0.5);

  EXPECT_THROW(parse_skew_spec("proc:3"), ContractViolation);
  EXPECT_THROW(parse_skew_spec("node:3:x4"), ContractViolation);
  EXPECT_THROW(parse_skew_spec("proc:3:4"), ContractViolation);
  EXPECT_THROW(parse_skew_spec("proc:3:x"), ContractViolation);
  EXPECT_THROW(parse_skew_spec("proc:3:x0"), ContractViolation);
  EXPECT_THROW(parse_skew_spec("proc:3:x-2"), ContractViolation);
  EXPECT_THROW(parse_skew_spec("proc:3:x2000"), ContractViolation);
  EXPECT_THROW(parse_skew_spec("proc:1-2:x4"), ContractViolation);

  ScenarioConfig scn;
  scn.skews.push_back(p);
  EXPECT_FALSE(scn.empty());
  EXPECT_EQ(scn.label(), "skew=proc:3:x4");
}

// ---- FaultyChannel ----------------------------------------------------------

TEST(FaultyChannel, CopiesFollowLossAndDup) {
  ConstantDelay inner(10);
  Rng rng(7);
  const Message m = Message::phase_msg(1, Phase::One, Estimate::One);

  LinkFaultConfig always_lost;
  always_lost.loss = 1.0;
  FaultyChannel lossy(inner, always_lost, CoinAttackConfig{});
  EXPECT_EQ(lossy.copies(m, rng), 0);

  LinkFaultConfig always_dup;
  always_dup.dup = 1.0;
  FaultyChannel dupy(inner, always_dup, CoinAttackConfig{});
  EXPECT_EQ(dupy.copies(m, rng), 2);

  LinkFaultConfig half;
  half.loss = 0.5;
  FaultyChannel coin(inner, half, CoinAttackConfig{});
  int lost = 0;
  const int kDraws = 10'000;
  for (int i = 0; i < kDraws; ++i) {
    if (coin.copies(m, rng) == 0) ++lost;
  }
  EXPECT_GT(lost, kDraws / 2 - 500);
  EXPECT_LT(lost, kDraws / 2 + 500);
}

TEST(FaultyChannel, ReorderJitterIsBounded) {
  ConstantDelay inner(100);
  LinkFaultConfig link;
  link.reorder_max = 40;
  FaultyChannel ch(inner, link, CoinAttackConfig{});
  Rng rng(9);
  Rng twin(9);
  const Message m = Message::phase_msg(1, Phase::One, Estimate::Zero);
  SimTime lo = 1'000'000, hi = -1;
  for (int i = 0; i < 2'000; ++i) {
    const SimTime d = ch.delay(0, 1, m, 0, rng);
    // The jitter is exactly Rng::uniform(0, reorder_max), draw for draw.
    ASSERT_EQ(d, 100 + twin.uniform(0, 40)) << "draw " << i;
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GE(lo, 100);
  EXPECT_LE(hi, 140);
  EXPECT_LT(lo, 110);  // the jitter actually spreads
  EXPECT_GT(hi, 130);
}

TEST(FaultyChannel, CoinAttackTargetsCarriers) {
  ConstantDelay inner(100);
  CoinAttackConfig attack;
  attack.enabled = true;
  attack.bit = 1;
  attack.boost = 500;
  FaultyChannel ch(inner, LinkFaultConfig{}, attack);
  Rng rng(3);
  // Coin carriers: PHASE, round >= 2, phase 1, est == bit.
  EXPECT_EQ(ch.delay(0, 1, Message::phase_msg(2, Phase::One, Estimate::One),
                     0, rng),
            600);
  EXPECT_EQ(ch.delay(0, 1, Message::phase_msg(2, Phase::One, Estimate::Zero),
                     0, rng),
            100);
  EXPECT_EQ(ch.delay(0, 1, Message::phase_msg(1, Phase::One, Estimate::One),
                     0, rng),
            100);
  EXPECT_EQ(ch.delay(0, 1, Message::phase_msg(2, Phase::Two, Estimate::One),
                     0, rng),
            100);
  EXPECT_EQ(ch.delay(0, 1, Message::decide_msg(Estimate::One), 0, rng), 100);
}

TEST(FaultyChannel, SkewScalesDeliveryToTarget) {
  ConstantDelay inner(100);
  FaultyChannel ch(inner, LinkFaultConfig{}, CoinAttackConfig{});
  const std::vector<double> speed{1.0, 4.0, 0.5};
  ch.set_speed_factors(&speed);
  Rng rng(5);
  const Message m = Message::phase_msg(1, Phase::One, Estimate::One);
  EXPECT_EQ(ch.delay(1, 0, m, 0, rng), 100);  // nominal receiver untouched
  EXPECT_EQ(ch.delay(0, 1, m, 0, rng), 400);  // 4x slower receiver
  EXPECT_EQ(ch.delay(0, 2, m, 0, rng), 50);   // fast receiver
}

TEST(FaultyChannel, RejectsBadProbabilities) {
  ConstantDelay inner(10);
  LinkFaultConfig bad;
  bad.loss = 1.5;
  EXPECT_THROW(FaultyChannel(inner, bad, CoinAttackConfig{}),
               ContractViolation);
}

// ---- PartitionSchedule -------------------------------------------------------

TEST(PartitionSchedule, ReleaseTimes) {
  const auto layout = ClusterLayout::even(8, 4);  // {0,1},{2,3},{4,5},{6,7}
  const PartitionSpec spec = parse_partition_spec("cluster:0@100..200");
  const PartitionSchedule sched({spec}, layout);

  // Same side: never held.
  EXPECT_EQ(sched.release_time(0, 1, 150), 150);
  EXPECT_EQ(sched.release_time(2, 7, 150), 150);
  // Crossing before the cut opens or after it heals: unaffected.
  EXPECT_EQ(sched.release_time(0, 2, 50), 50);
  EXPECT_EQ(sched.release_time(0, 2, 200), 200);
  // Crossing during the cut (either direction): held until heal.
  EXPECT_EQ(sched.release_time(0, 2, 150), 200);
  EXPECT_EQ(sched.release_time(2, 0, 100), 200);
}

TEST(PartitionSchedule, PermanentCutBlocksForever) {
  const auto layout = ClusterLayout::even(8, 4);
  const PartitionSpec spec = parse_partition_spec("procs:0-1@50..never");
  const PartitionSchedule sched({spec}, layout);
  EXPECT_EQ(sched.release_time(0, 2, 60), kSimTimeNever);
  EXPECT_EQ(sched.release_time(0, 2, 40), 40);  // sent before the cut
  EXPECT_EQ(sched.release_time(0, 1, 60), 60);  // same side
}

TEST(PartitionSchedule, OverlappingCutsCascade) {
  const auto layout = ClusterLayout::even(8, 4);
  // First cut releases at 200, straight into the second, which holds 150..300.
  const PartitionSchedule sched(
      {parse_partition_spec("cluster:0@100..200"),
       parse_partition_spec("cluster:0-1@150..300")},
      layout);
  EXPECT_EQ(sched.release_time(0, 4, 120), 300);
}

TEST(PartitionSchedule, RejectsOutOfRangeIds) {
  const auto layout = ClusterLayout::even(8, 4);
  EXPECT_THROW(
      PartitionSchedule({parse_partition_spec("cluster:9@1..2")}, layout),
      ContractViolation);
  EXPECT_THROW(
      PartitionSchedule({parse_partition_spec("procs:8@1..2")}, layout),
      ContractViolation);
}

TEST(PartitionSchedule, FlappingSquareWave) {
  const auto layout = ClusterLayout::even(8, 4);
  // Cut during [0,100), [400,500), [800,900), … healed in between.
  const PartitionSchedule sched(
      {parse_partition_spec("cluster:0:flap=100:period=400@0..never")},
      layout);
  // Inside a pulse: held to its trailing edge.
  EXPECT_EQ(sched.release_time(0, 4, 0), 100);
  EXPECT_EQ(sched.release_time(0, 4, 99), 100);
  EXPECT_EQ(sched.release_time(0, 4, 450), 500);
  // Inside a healed gap: passes immediately.
  EXPECT_EQ(sched.release_time(0, 4, 100), 100);
  EXPECT_EQ(sched.release_time(0, 4, 250), 250);
  EXPECT_EQ(sched.release_time(0, 4, 399), 399);
  // Same side: never affected.
  EXPECT_EQ(sched.release_time(0, 1, 50), 50);
}

TEST(PartitionSchedule, FlappingWindowAndStartOffset) {
  const auto layout = ClusterLayout::even(8, 4);
  // Wave starts at 1000 and the whole schedule ends at 1850 — the last
  // pulse [1800, 1900) is truncated to heal at 1850.
  const PartitionSchedule sched(
      {parse_partition_spec("cluster:0:flap=100:period=400@1000..1850")},
      layout);
  EXPECT_EQ(sched.release_time(0, 4, 500), 500);    // before the schedule
  EXPECT_EQ(sched.release_time(0, 4, 1000), 1100);  // first pulse
  EXPECT_EQ(sched.release_time(0, 4, 1450), 1500);  // second pulse
  EXPECT_EQ(sched.release_time(0, 4, 1820), 1850);  // truncated last pulse
  EXPECT_EQ(sched.release_time(0, 4, 1900), 1900);  // after the schedule
}

TEST(PartitionSchedule, InterlockedFlappingThatNeverOpensIsPermanent) {
  const auto layout = ClusterLayout::even(8, 4);
  // Two waves in perfect anti-phase covering all time: cut A closed on
  // [0,200) of each 400, cut B closed on [200,400). Their joint gap never
  // opens, so the query must settle on "never" instead of hopping forever.
  const PartitionSchedule sched(
      {parse_partition_spec("cluster:0:flap=200:period=400@0..never"),
       parse_partition_spec("cluster:0:flap=200:period=400@200..never")},
      layout);
  EXPECT_EQ(sched.release_time(0, 4, 0), kSimTimeNever);
}

// ---- CrashTracker recovery ---------------------------------------------------

TEST(CrashRecovery, TrackerRoundTrips) {
  CrashTracker tracker(4);
  tracker.crash(2, 100);
  EXPECT_TRUE(tracker.is_crashed(2));
  EXPECT_EQ(tracker.crashed_count(), 1u);
  tracker.recover(2, 400);
  EXPECT_FALSE(tracker.is_crashed(2));
  EXPECT_EQ(tracker.crashed_count(), 0u);
  EXPECT_EQ(tracker.recovered_count(), 1u);
  EXPECT_EQ(tracker.recover_time(2), 400);
  EXPECT_EQ(tracker.crash_time(2), kSimTimeNever);
  EXPECT_TRUE(tracker.correct().test(2));
  EXPECT_THROW(tracker.recover(2, 500), ContractViolation);
}

// ---- end-to-end properties ----------------------------------------------------

RunConfig scenario_run(Algorithm alg, std::uint64_t seed,
                       const ScenarioConfig& scn, ProcId n = 16,
                       ClusterId m = 4) {
  RunConfig cfg(ClusterLayout::even(n, m));
  cfg.alg = alg;
  cfg.seed = seed;
  cfg.scenario = scn;
  return cfg;
}

TEST(ScenarioEndToEnd, PartitionThenHealLiveness) {
  // A healed cut is only asynchrony: every correct process must still decide,
  // for minority, half, and intra-cluster cuts alike.
  const char* cuts[] = {"cluster:0@0..3000", "cluster:0-1@0..3000",
                        "split:0@0..3000"};
  for (const Algorithm alg :
       {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin}) {
    for (const char* cut : cuts) {
      ScenarioConfig scn;
      scn.partitions.push_back(parse_partition_spec(cut));
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const RunResult r = run_consensus(scenario_run(alg, seed, scn));
        EXPECT_TRUE(r.success()) << to_cstring(alg) << " cut=" << cut
                                 << " seed=" << seed;
      }
    }
  }
}

TEST(ScenarioEndToEnd, FlappingPartitionStillTerminates) {
  // The ROADMAP livelock probe: a square-wave cut/heal cycle on one cluster
  // (and on a half cut) holds messages during every pulse but always heals —
  // that is repeated asynchrony, not loss, so every correct process must
  // still decide and safety must hold.
  const char* waves[] = {"cluster:0:flap=200us:period=500us",
                         "cluster:0-1:flap=100us:period=400us@0..3ms"};
  for (const Algorithm alg :
       {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin}) {
    for (const char* wave : waves) {
      ScenarioConfig scn;
      scn.partitions.push_back(parse_partition_spec(wave));
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const RunResult r = run_consensus(scenario_run(alg, seed, scn));
        EXPECT_TRUE(r.success()) << to_cstring(alg) << " wave=" << wave
                                 << " seed=" << seed;
      }
    }
  }
}

TEST(ScenarioEndToEnd, PermanentHalfCutBlocksButStaysSafe) {
  // 8-vs-8 cut with no heal: neither side covers > n/2, so nobody may
  // decide — and safety must hold anyway (indulgence under partition).
  ScenarioConfig scn;
  scn.partitions.push_back(parse_partition_spec("cluster:0-1@0..never"));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunConfig cfg = scenario_run(Algorithm::HybridCommonCoin, seed, scn);
    cfg.max_rounds = 40;  // park quickly; the run can never terminate
    const RunResult r = run_consensus(cfg);
    EXPECT_TRUE(r.safe()) << "seed=" << seed;
    EXPECT_FALSE(r.decided_value.has_value()) << "seed=" << seed;
  }
}

TEST(ScenarioEndToEnd, LossAndDuplicationNeverViolateSafety) {
  ScenarioConfig scn;
  scn.link.loss = 0.2;
  scn.link.dup = 0.2;
  scn.link.reorder_max = 100;
  for (const Algorithm alg :
       {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin,
        Algorithm::BenOr}) {
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      RunConfig cfg = scenario_run(alg, seed, scn, 8, 4);
      if (alg == Algorithm::BenOr) cfg.layout = ClusterLayout::singletons(8);
      cfg.max_rounds = 300;
      const RunResult r = run_consensus(cfg);
      EXPECT_TRUE(r.safe()) << to_cstring(alg) << " seed=" << seed << ": "
                            << (r.violations.empty() ? ""
                                                     : r.violations.front());
    }
  }
}

TEST(ScenarioEndToEnd, DuplicationAloneStillTerminates) {
  // Pure duplication keeps channels reliable — liveness must survive it.
  ScenarioConfig scn;
  scn.link.dup = 0.5;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RunResult r =
        run_consensus(scenario_run(Algorithm::HybridCommonCoin, seed, scn));
    EXPECT_TRUE(r.success()) << "seed=" << seed;
    EXPECT_GT(r.net.duplicated, 0u);
  }
}

TEST(ScenarioEndToEnd, SkewedProcessLivenessAt10x) {
  // Clock skew is pure asynchrony: a process running 10x slower (and a
  // whole slow cluster) must not block termination or safety — the paper's
  // model lets processes run at arbitrary relative speeds.
  for (const Algorithm alg :
       {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin}) {
    for (const char* spec : {"proc:0:x10", "cluster:1:x10"}) {
      ScenarioConfig scn;
      scn.skews = {parse_skew_spec(spec)};
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const RunResult r = run_consensus(scenario_run(alg, seed, scn));
        EXPECT_TRUE(r.success()) << to_cstring(alg) << " skew=" << spec
                                 << " seed=" << seed;
      }
    }
  }
}

TEST(ScenarioEndToEnd, SkewResolvesAgainstLayout) {
  const ClusterLayout layout = ClusterLayout::even(8, 2);
  ScenarioConfig scn;
  scn.skews = {parse_skew_spec("cluster:1:x4"), parse_skew_spec("proc:0:x2")};
  const auto speed = resolve_skews(scn.skews, layout);
  ASSERT_EQ(speed.size(), 8u);
  EXPECT_DOUBLE_EQ(speed[0], 2.0);
  EXPECT_DOUBLE_EQ(speed[1], 1.0);
  EXPECT_DOUBLE_EQ(speed[4], 4.0);
  EXPECT_DOUBLE_EQ(speed[7], 4.0);

  ScenarioConfig bad_proc;
  bad_proc.skews = {parse_skew_spec("proc:8:x2")};
  EXPECT_THROW(validate_scenario(bad_proc, layout), ContractViolation);
  ScenarioConfig bad_cluster;
  bad_cluster.skews = {parse_skew_spec("cluster:2:x2")};
  EXPECT_THROW(validate_scenario(bad_cluster, layout), ContractViolation);
}

TEST(ScenarioEndToEnd, RecoveryRejoinDecides) {
  // p3 crashes early and rejoins long after the others decided: the rejoin
  // retransmit + decide-reply gossip must pull it to the same decision.
  ScenarioConfig scn;
  RecoverySpec rec;
  rec.id = 3;
  rec.down_at = 100;
  rec.up_at = 5000;
  scn.recoveries.push_back(rec);
  for (const Algorithm alg :
       {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const RunResult r = run_consensus(scenario_run(alg, seed, scn));
      EXPECT_TRUE(r.success()) << to_cstring(alg) << " seed=" << seed;
      EXPECT_EQ(r.recovered, 1u);
      EXPECT_EQ(r.crashed, 0u);
      EXPECT_TRUE(r.decisions[3].has_value());
    }
  }
}

TEST(ScenarioEndToEnd, RecoveryBeforeStartProposesLate) {
  // Down from t=0 through everyone else's whole execution: the process only
  // proposes on rejoin and must still learn the decision.
  ScenarioConfig scn;
  RecoverySpec rec;
  rec.id = 0;
  rec.down_at = 0;
  rec.up_at = 4000;
  scn.recoveries.push_back(rec);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RunResult r =
        run_consensus(scenario_run(Algorithm::HybridCommonCoin, seed, scn));
    EXPECT_TRUE(r.success()) << "seed=" << seed;
    EXPECT_TRUE(r.decisions[0].has_value());
  }
}

TEST(ScenarioEndToEnd, RejoinerNeededForMajorityStillCatchesUp) {
  // even(4, 2): clusters {0,1}, {2,3}. p2 is dead for good, so the
  // survivors p0/p1 cover only 2 of 4 processes (not > n/2) and CANNOT
  // decide while p3 is down — when p3 rejoins, nobody has decided and
  // decide replies alone can't help. p3 must replay the history it missed
  // via the catch-up replies, climb to the frontier, and unblock everyone.
  ScenarioConfig scn;
  RecoverySpec rec;
  rec.id = 3;
  rec.down_at = 100;
  rec.up_at = 5000;
  scn.recoveries.push_back(rec);
  for (const Algorithm alg :
       {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      RunConfig cfg(ClusterLayout::even(4, 2));
      cfg.alg = alg;
      cfg.seed = seed;
      cfg.scenario = scn;
      cfg.crashes = CrashPlan::none(4);
      cfg.crashes.specs[2] = CrashSpec::at_time(1);  // p2 never comes back
      const RunResult r = run_consensus(cfg);
      EXPECT_TRUE(r.safe()) << to_cstring(alg) << " seed=" << seed;
      for (const ProcId p : {0, 1, 3}) {
        EXPECT_TRUE(r.decisions[static_cast<std::size_t>(p)].has_value())
            << to_cstring(alg) << " seed=" << seed << " p" << p;
      }
    }
  }
}

TEST(ScenarioValidation, RejectsOutOfRangeAndOverlappingRecoveries) {
  const auto layout = ClusterLayout::even(8, 4);

  ScenarioConfig bad_proc;
  bad_proc.recoveries.push_back(parse_recovery_spec("8@100..200"));
  EXPECT_THROW(validate_scenario(bad_proc, layout), ContractViolation);

  ScenarioConfig bad_cluster;
  bad_cluster.recoveries.push_back(parse_recovery_spec("cluster:4@100..200"));
  EXPECT_THROW(validate_scenario(bad_cluster, layout), ContractViolation);

  // p1 rides both the cluster-0 window and its own overlapping one.
  ScenarioConfig overlapping;
  overlapping.recoveries.push_back(
      parse_recovery_spec("cluster:0@100..3000"));
  overlapping.recoveries.push_back(parse_recovery_spec("1@200..1000"));
  EXPECT_THROW(validate_scenario(overlapping, layout), ContractViolation);

  // Disjoint windows for the same process are fine.
  ScenarioConfig sequential;
  sequential.recoveries.push_back(parse_recovery_spec("1@100..1000"));
  sequential.recoveries.push_back(parse_recovery_spec("1@1000..2000"));
  validate_scenario(sequential, layout);

  ScenarioConfig ok;
  ok.link.loss = 0.1;
  ok.partitions.push_back(parse_partition_spec("cluster:0@1..2"));
  ok.recoveries.push_back(parse_recovery_spec("7@100..200"));
  validate_scenario(ok, layout);
}

TEST(ScenarioEndToEnd, SequentialRecoveryWindowsCycleTwice) {
  ScenarioConfig scn;
  scn.recoveries.push_back(parse_recovery_spec("1@100..1500"));
  scn.recoveries.push_back(parse_recovery_spec("1@1500..4000"));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RunResult r =
        run_consensus(scenario_run(Algorithm::HybridCommonCoin, seed, scn));
    EXPECT_TRUE(r.success()) << "seed=" << seed;
    EXPECT_EQ(r.recovered, 2u);
  }
}

TEST(ScenarioEndToEnd, WholeClusterRecoveryCycles) {
  ScenarioConfig scn;
  RecoverySpec rec;
  rec.whole_cluster = true;
  rec.id = 1;
  rec.down_at = 150;
  rec.up_at = 4000;
  scn.recoveries.push_back(rec);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RunResult r =
        run_consensus(scenario_run(Algorithm::HybridCommonCoin, seed, scn));
    EXPECT_TRUE(r.success()) << "seed=" << seed;
    EXPECT_EQ(r.recovered, 4u);  // even(16, 4): cluster 1 has 4 members
  }
}

TEST(ScenarioEndToEnd, EmptyScenarioIsByteIdenticalToLegacyPath) {
  RunConfig cfg(ClusterLayout::even(8, 4));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.seed = 0xFEED;
  Trace legacy_trace(1 << 16);
  Trace again_trace(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &legacy_trace;
  const RunResult legacy = run_consensus(cfg);
  cfg.scenario = ScenarioConfig{};  // still empty — same path
  cfg.trace_sink = &again_trace;
  const RunResult again = run_consensus(cfg);
  ASSERT_GT(legacy_trace.size(), 0u);
  EXPECT_EQ(legacy_trace.recorded(), legacy_trace.size());
  std::vector<TraceRecord> legacy_records;
  std::vector<TraceRecord> again_records;
  legacy_trace.for_each(
      [&](const TraceRecord& r) { legacy_records.push_back(r); });
  again_trace.for_each(
      [&](const TraceRecord& r) { again_records.push_back(r); });
  EXPECT_EQ(legacy_records, again_records);
  EXPECT_EQ(legacy.events, again.events);
  EXPECT_EQ(legacy.net.unicasts_sent, again.net.unicasts_sent);
  EXPECT_EQ(legacy.net.dropped_lost, 0u);
  EXPECT_EQ(legacy.net.dropped_partitioned, 0u);
  EXPECT_EQ(legacy.net.duplicated, 0u);
}

// ---- grid determinism -----------------------------------------------------

std::string run_faulty_grid(std::int64_t threads) {
  ExperimentSpec spec;
  spec.name = "scenario-grid";
  spec.algorithms = {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin};
  spec.layouts = {ClusterLayout::even(8, 4)};

  ScenarioConfig faulty;
  faulty.link.loss = 0.1;
  faulty.link.dup = 0.1;
  faulty.link.reorder_max = 50;
  faulty.partitions.push_back(parse_partition_spec("cluster:0@100..900"));
  RecoverySpec rec;
  rec.id = 1;
  rec.down_at = 50;
  rec.up_at = 2000;
  faulty.recoveries.push_back(rec);

  spec.scenarios = {ScenarioAxis::none(), ScenarioAxis::of(faulty)};
  spec.runs_per_cell = 5;
  spec.max_rounds = 300;
  spec.base_seed = 0x5C3;

  ParallelExecutor::Options opts;
  opts.threads = threads;
  const ParallelExecutor exec(opts);
  const auto results = exec.run(spec);

  std::ostringstream csv, json;
  write_cell_csv(csv, results);
  write_cell_json(json, spec.name, results);
  return csv.str() + "\n---\n" + json.str();
}

TEST(ScenarioDeterminism, FaultyGridByteIdenticalAcrossThreadCounts) {
  const std::string one = run_faulty_grid(1);
  const std::string four = run_faulty_grid(4);
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace hyco
