// Output pins for every simulation driver: each test runs one driver at a
// fixed seed and folds everything its result exposes into a 64-bit digest,
// compared against a recorded constant. The cases cover scripted crashes
// (down from the start and mid-run), every scenario fault (loss,
// duplication, reordering, a healing cut, crash-recovery rejoins, clock
// skew), trace records of every kind the writers emit, and all six
// drivers. Any change to how a run is wired — event order, seed streams,
// crash or rejoin scheduling, start times — moves a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "baseline/mm_runner.h"
#include "core/multivalued_runner.h"
#include "core/runner.h"
#include "core/total_order_runner.h"
#include "scenario/scenario.h"
#include "service/service_runner.h"
#include "sim/trace.h"
#include "workload/register_harness.h"

namespace hyco {
namespace {

/// FNV-1a over 64-bit words and byte strings.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((x >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void add_signed(std::int64_t x) { add(static_cast<std::uint64_t>(x)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void fold(Digest& d, const NetStats& s) {
  d.add(s.unicasts_sent);
  d.add(s.broadcasts);
  d.add(s.delivered);
  d.add(s.dropped_sender_crashed);
  d.add(s.dropped_receiver_crashed);
  d.add(s.dropped_partitioned);
  d.add(s.dropped_lost);
  d.add(s.duplicated);
  d.add(s.held_partitioned);
}

void fold(Digest& d, const ShmOpCounts& s) {
  d.add(s.reads);
  d.add(s.writes);
  d.add(s.cas_attempts);
  d.add(s.cas_successes);
  d.add(s.ll_ops);
  d.add(s.sc_attempts);
  d.add(s.sc_successes);
  d.add(s.consensus_proposals);
}

void fold(Digest& d, const ExactMoments& m) {
  d.add(m.count());
  d.add(static_cast<std::uint64_t>(m.raw_sum()));
  d.add(static_cast<std::uint64_t>(m.raw_sum() >> 64));
  d.add(static_cast<std::uint64_t>(m.raw_sumsq()));
  d.add(static_cast<std::uint64_t>(m.raw_sumsq() >> 64));
  d.add(m.raw_min());
  d.add(m.raw_max());
}

void fold(Digest& d, const obs::LogHistogram& h) {
  d.add(h.total());
  for (std::size_t i = 0; i < obs::LogHistogram::kBuckets; ++i) {
    d.add(h.bucket(i));
  }
}

template <typename T>
void fold_optional(Digest& d, const std::optional<T>& v) {
  d.add(std::uint64_t{v.has_value()});
  if (v.has_value()) d.add(static_cast<std::uint64_t>(*v));
}

std::uint64_t digest(const RunResult& r) {
  Digest d;
  for (const auto& v : r.decisions) fold_optional(d, v);
  for (const Round x : r.decision_rounds) d.add_signed(x);
  for (const ProcessStats& ps : r.proc_stats) {
    d.add(ps.cons_invocations);
    d.add(ps.coin_flips);
    d.add(ps.phase_msgs_handled);
    d.add_signed(ps.rounds_entered);
  }
  fold_optional(d, r.decided_value);
  d.add(std::uint64_t{r.all_correct_decided});
  d.add(std::uint64_t{r.agreement_ok});
  d.add(std::uint64_t{r.validity_ok});
  d.add(std::uint64_t{r.invariants_ok});
  for (const std::string& v : r.violations) d.add(v);
  d.add_signed(r.max_round);
  d.add_signed(r.max_decision_round);
  d.add_signed(r.last_decision_time);
  d.add_signed(r.end_time);
  fold(d, r.net);
  fold(d, r.shm);
  d.add(r.consensus_objects);
  d.add(r.events);
  d.add(static_cast<std::uint64_t>(r.stop));
  d.add(r.crashed);
  d.add(r.recovered);
  d.add(r.trace_dump);
  for (const std::uint64_t x : r.obs.v) d.add(x);
  return d.value();
}

std::uint64_t digest(const Trace& trace) {
  Digest d;
  d.add(trace.recorded());
  trace.for_each([&d](const TraceRecord& rec) {
    d.add(std::string_view(to_cstring(rec.kind)));
    d.add_signed(rec.at);
    d.add_signed(rec.proc);
    d.add(rec.mid);
    d.add(rec.parent);
    std::ostringstream detail;
    write_detail(detail, rec);
    d.add(detail.str());
  });
  return d.value();
}

std::uint64_t digest(const MultiRunResult& r) {
  Digest d;
  for (const auto& v : r.decisions) fold_optional(d, v);
  fold_optional(d, r.decided_value);
  d.add(std::uint64_t{r.all_correct_decided});
  d.add(std::uint64_t{r.agreement_ok});
  d.add(std::uint64_t{r.validity_ok});
  fold(d, r.net);
  fold(d, r.shm);
  d.add(r.consensus_objects);
  d.add(r.events);
  d.add_signed(r.end_time);
  d.add(static_cast<std::uint64_t>(r.stop));
  d.add(r.crashed);
  return d.value();
}

std::uint64_t digest(const TobRunResult& r) {
  Digest d;
  for (const auto& log : r.logs) {
    d.add(static_cast<std::uint64_t>(log.size()));
    for (const std::uint64_t x : log) d.add(x);
  }
  d.add(std::uint64_t{r.prefix_agreement});
  d.add(std::uint64_t{r.all_delivered});
  for (const std::string& v : r.violations) d.add(v);
  fold(d, r.net);
  d.add(r.events);
  d.add_signed(r.end_time);
  d.add(r.crashed);
  return d.value();
}

std::uint64_t digest(const RegisterRunResult& r) {
  Digest d;
  for (const RegOpRecord& op : r.history) {
    d.add_signed(op.proc);
    d.add(std::uint64_t{op.is_write});
    d.add(op.value);
    d.add_signed(op.ts.seq);
    d.add_signed(op.ts.writer);
    d.add_signed(op.invoked);
    d.add_signed(op.responded);
  }
  d.add(std::uint64_t{r.atomicity_ok});
  for (const std::string& v : r.violations) d.add(v);
  d.add(std::uint64_t{r.all_correct_completed});
  fold(d, r.net);
  d.add_signed(r.end_time);
  d.add(r.crashed);
  return d.value();
}

std::uint64_t digest(const ServiceRunResult& r) {
  Digest d;
  for (const auto& log : r.slot_logs) {
    d.add(static_cast<std::uint64_t>(log.size()));
    for (const SlotRecord& s : log) {
      d.add_signed(s.slot);
      d.add(s.batch);
    }
  }
  d.add(r.ops_submitted);
  d.add(r.ops_completed);
  d.add(r.batches);
  d.add(r.slots);
  d.add(std::uint64_t{r.terminated});
  d.add(std::uint64_t{r.safe_ok});
  for (const std::string& v : r.violations) d.add(v);
  fold(d, r.latency);
  fold(d, r.latency_hist);
  fold(d, r.batch_wait);
  fold(d, r.batch_wait_hist);
  fold(d, r.seq_wait);
  fold(d, r.seq_wait_hist);
  fold(d, r.consensus);
  fold(d, r.consensus_hist);
  fold(d, r.net);
  fold(d, r.shm);
  d.add(r.consensus_objects);
  d.add(r.events);
  d.add_signed(r.end_time);
  d.add(r.crashed);
  d.add(static_cast<std::uint64_t>(r.stop));
  return d.value();
}

/// n = 8 in 4 clusters; p1 is down from the start, p5 crashes mid-run.
RunConfig crash_config(Algorithm alg) {
  RunConfig cfg(ClusterLayout::even(8, 4));
  cfg.alg = alg;
  cfg.seed = 0x57EAD;
  cfg.crashes = CrashPlan::none(8);
  cfg.crashes.specs[1] = CrashSpec::at_time(0);
  cfg.crashes.specs[5] = CrashSpec::at_time(180);
  return cfg;
}

void expect_digest(std::uint64_t actual, std::uint64_t expected) {
  EXPECT_EQ(actual, expected) << "digest is 0x" << std::hex << actual;
}

TEST(WorldPin, Alg2WithCrashes) {
  const RunResult r = run_consensus(crash_config(Algorithm::HybridLocalCoin));
  EXPECT_TRUE(r.success());
  EXPECT_EQ(r.crashed, 2u);
  expect_digest(digest(r), 0xdfaac631c7d3c877ULL);
}

TEST(WorldPin, Alg3WithCrashes) {
  const RunResult r =
      run_consensus(crash_config(Algorithm::HybridCommonCoin));
  EXPECT_TRUE(r.success());
  EXPECT_EQ(r.crashed, 2u);
  expect_digest(digest(r), 0x2ca0faf18fcfc2bfULL);
}

TEST(WorldPin, BenOrWithCrashes) {
  const RunResult r = run_consensus(crash_config(Algorithm::BenOr));
  EXPECT_TRUE(r.success());
  EXPECT_EQ(r.crashed, 2u);
  expect_digest(digest(r), 0xe5f7f8d7f2808547ULL);
}

TEST(WorldPin, ConsensusUnderEveryScenarioFault) {
  RunConfig cfg(ClusterLayout::even(8, 4));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.seed = 0x5CE7;
  cfg.collect_obs = true;
  cfg.scenario.link.loss = 0.05;
  cfg.scenario.link.dup = 0.05;
  cfg.scenario.link.reorder_max = 100;
  cfg.scenario.partitions.push_back(parse_partition_spec("cluster:0@100..800"));
  cfg.scenario.recoveries.push_back(parse_recovery_spec("3@100..5000"));
  cfg.scenario.recoveries.push_back(parse_recovery_spec("6@0..3000"));
  cfg.scenario.skews.push_back(parse_skew_spec("proc:2:x3"));
  const RunResult r = run_consensus(cfg);
  EXPECT_TRUE(r.safe());
  EXPECT_EQ(r.recovered, 2u);
  expect_digest(digest(r), 0x7189495168770961ULL);
}

TEST(WorldPin, ConsensusTracedIntoCallersTrace) {
  RunConfig cfg = crash_config(Algorithm::HybridCommonCoin);
  Trace trace(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &trace;
  const RunResult r = run_consensus(cfg);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(trace.recorded(), trace.size());  // the ring never wrapped
  EXPECT_TRUE(r.trace_dump.empty());
  expect_digest(digest(trace), 0x01e7d56744e6ff9aULL);
  // A sink-traced result equals the untraced one (Alg3WithCrashes).
  expect_digest(digest(r), 0x2ca0faf18fcfc2bfULL);
}

/// Every network and observer record shape: lost, partitioned and
/// receiver-crashed drops, a mid-broadcast crash, phases, quorums, decides.
TEST(WorldPin, ConsensusTracedUnderFaults) {
  RunConfig cfg(ClusterLayout::even(8, 4));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.seed = 0x7FA7;
  cfg.crashes = CrashPlan::none(8);
  cfg.crashes.specs[2] = CrashSpec::on_broadcast(1, 3);
  cfg.crashes.specs[6] = CrashSpec::at_time(150);
  cfg.scenario.link.loss = 0.05;
  cfg.scenario.partitions.push_back(parse_partition_spec("procs:7@300..never"));
  Trace trace(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &trace;
  const RunResult r = run_consensus(cfg);
  EXPECT_GT(r.net.dropped_lost, 0u);
  EXPECT_GT(r.net.dropped_partitioned, 0u);
  EXPECT_GT(r.net.dropped_receiver_crashed, 0u);
  EXPECT_TRUE(r.decided_value.has_value());
  EXPECT_EQ(trace.recorded(), trace.size());
  expect_digest(digest(trace), 0xca8a10e9965ce913ULL);
  expect_digest(digest(r), 0xe7524c1b2bb90ed6ULL);
}

TEST(WorldPin, ConsensusTracedIntoItsOwnRing) {
  RunConfig cfg = crash_config(Algorithm::HybridLocalCoin);
  cfg.enable_trace = true;
  const RunResult r = run_consensus(cfg);
  EXPECT_FALSE(r.trace_dump.empty());
  expect_digest(digest(r), 0x36778c98f8cbca62ULL);
}

TEST(WorldPin, Multivalued) {
  MultiRunConfig cfg(ClusterLayout::even(8, 2));
  cfg.seed = 0x3A1;
  cfg.crashes = CrashPlan::none(8);
  cfg.crashes.specs[0] = CrashSpec::at_time(0);
  cfg.crashes.specs[6] = CrashSpec::at_time(400);
  const MultiRunResult r = run_multivalued(cfg);
  EXPECT_TRUE(r.success());
  expect_digest(digest(r), 0x70b76db1de5529e2ULL);
}

TEST(WorldPin, TotalOrder) {
  TobRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.seed = 0x70B;
  cfg.submissions = {{0, 0, 11}, {3, 0, 22}, {6, 40, 33},
                     {1, 900, 44}, {4, 2500, 55}};
  cfg.crashes = CrashPlan::none(7);
  cfg.crashes.specs[2] = CrashSpec::at_time(0);
  cfg.crashes.specs[5] = CrashSpec::at_time(700);
  const TobRunResult r = run_tob(cfg);
  EXPECT_TRUE(r.prefix_agreement);
  expect_digest(digest(r), 0x80cf5b5eeee3a727ULL);
}

TEST(WorldPin, Register) {
  RegisterRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.seed = 0x4E6;
  cfg.ops_per_process = 5;
  cfg.crashes = CrashPlan::none(7);
  cfg.crashes.specs[0] = CrashSpec::at_time(0);
  cfg.crashes.specs[4] = CrashSpec::at_time(600);
  const RegisterRunResult r = run_register_workload(cfg);
  EXPECT_TRUE(r.atomicity_ok);
  expect_digest(digest(r), 0x0459e75dcf164858ULL);
}

TEST(WorldPin, MmBaseline) {
  MmRunConfig cfg(MmDomain::fig2());
  cfg.seed = 0x33A;
  cfg.crashes = CrashPlan::none(5);
  cfg.crashes.specs[4] = CrashSpec::at_time(250);
  const RunResult r = run_mm(cfg);
  EXPECT_TRUE(r.safe());
  expect_digest(digest(r), 0x60eab0a3df0b1a99ULL);
}

TEST(WorldPin, ServiceWithRejoin) {
  ServiceRunConfig cfg(ClusterLayout::even(6, 2));
  cfg.seed = 0x5E7;
  cfg.clients = 120;
  cfg.ops_per_client = 2;
  cfg.batch_max = 16;
  cfg.batch_delay = 20'000;
  cfg.crashes = CrashPlan::none(6);
  cfg.crashes.specs[5] = CrashSpec::at_time(0);
  cfg.scenario.recoveries.push_back(parse_recovery_spec("1@30us..400us"));
  const ServiceRunResult r = run_service(cfg);
  EXPECT_TRUE(r.safe_ok);
  expect_digest(digest(r), 0x8c0606bc8020e575ULL);
}

/// The four service record kinds: op submitted, batch flushed, slot
/// started, batch delivered.
TEST(WorldPin, ServiceTraced) {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.seed = 0x5E8;
  cfg.clients = 40;
  cfg.ops_per_client = 2;
  cfg.batch_max = 8;
  Trace trace(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &trace;
  const ServiceRunResult r = run_service(cfg);
  EXPECT_TRUE(r.safe_ok);
  EXPECT_EQ(trace.recorded(), trace.size());
  expect_digest(digest(trace), 0x6b9ffba14db59fe1ULL);
  expect_digest(digest(r), 0xbec053860f4274c4ULL);
}

}  // namespace
}  // namespace hyco
