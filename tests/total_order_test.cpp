// Tests of the total-order broadcast extension, run through its one host,
// the replicated service, with batching off (batch_delay = 0): every
// client op is its own batch, so each batch is one TOB submission. All
// correct replicas deliver the same log, every batch from a correct
// submitter is delivered, crashes respecting the covering condition —
// timed or inside a broadcast — don't break anything, and the slot
// multiplexing machinery holds up under concurrent submissions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "coin/coin.h"
#include "core/total_order.h"
#include "core/world.h"
#include "service/checker.h"
#include "service/service_runner.h"
#include "sim/trace.h"
#include "util/assert.h"
#include "workload/failure_patterns.h"

namespace hyco {
namespace {

ServiceRunConfig tob_config(ClusterLayout layout, std::uint64_t seed,
                            std::uint64_t clients) {
  ServiceRunConfig cfg(std::move(layout));
  cfg.seed = seed;
  cfg.clients = clients;
  cfg.batch_delay = 0;
  return cfg;
}

/// A replica's TOB-delivered sequence: its decided batches, NOOPs skipped.
std::vector<std::uint64_t> batches_of(const std::vector<SlotRecord>& log) {
  std::vector<std::uint64_t> out;
  for (const SlotRecord& s : log) {
    if (s.batch != TobProcess::kNoop) out.push_back(s.batch);
  }
  return out;
}

std::string first_violation(const ServiceRunResult& r) {
  return r.violations.empty() ? "?" : r.violations[0];
}

/// Runs `cfg` traced; `by` receives the replica that flushed each batch
/// (from the SvcFlush records).
ServiceRunResult run_traced(ServiceRunConfig cfg,
                            std::map<std::uint64_t, ProcId>& by) {
  Trace trace(1 << 18);
  cfg.enable_trace = true;
  cfg.trace_sink = &trace;
  ServiceRunResult r = run_service(cfg);
  EXPECT_EQ(trace.recorded(), trace.size()) << "trace ring wrapped";
  trace.for_each([&](const TraceRecord& rec) {
    if (rec.kind == TraceKind::SvcFlush) by[rec.args[0]] = rec.proc;
  });
  return r;
}

bool is_on_broadcast(const CrashPlan& plan, ProcId p) {
  return plan.specs[static_cast<std::size_t>(p)].kind ==
         CrashSpec::Kind::OnBroadcast;
}

TEST(TotalOrder, SingleSubmissionDeliveredEverywhere) {
  const auto r =
      run_service(tob_config(ClusterLayout::from_sizes({2, 3, 2}), 1, 1));
  ASSERT_TRUE(r.success()) << first_violation(r);
  for (const auto& log : r.slot_logs) {
    EXPECT_EQ(batches_of(log), (std::vector<std::uint64_t>{1}));
  }
}

TEST(TotalOrder, ConcurrentSubmissionsSameOrderEverywhere) {
  const auto r =
      run_service(tob_config(ClusterLayout::from_sizes({2, 3, 2}), 2, 5));
  ASSERT_TRUE(r.success()) << first_violation(r);
  ASSERT_EQ(r.slot_logs.size(), 7u);
  for (const auto& log : r.slot_logs) {
    EXPECT_EQ(batches_of(log).size(), 5u);
    EXPECT_EQ(log, r.slot_logs[0]);  // identical, not merely prefixes
  }
}

TEST(TotalOrder, StaggeredSubmissionsKeepOrdering) {
  // One closed-loop client: each op is submitted once the previous one was
  // delivered, so the log must hold them in submission order.
  ServiceRunConfig cfg = tob_config(ClusterLayout::from_sizes({3, 3}), 3, 1);
  cfg.ops_per_client = 3;
  const auto r = run_service(cfg);
  ASSERT_TRUE(r.success()) << first_violation(r);
  EXPECT_EQ(batches_of(r.slot_logs[0]),
            (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(TotalOrder, SurvivesMinorityCrash) {
  ServiceRunConfig cfg =
      tob_config(ClusterLayout::from_sizes({2, 3, 2}), 4, 7);
  cfg.crashes = CrashPlan::none(7);
  cfg.crashes.specs[0] = CrashSpec::at_time(50);
  cfg.crashes.specs[6] = CrashSpec::at_time(60);
  const auto r = run_service(cfg);
  ASSERT_TRUE(r.success()) << first_violation(r);
}

TEST(TotalOrder, OneForAllMajorityCrash) {
  // 5 of 7 crash; survivors p2 (majority cluster) and p0. The covering
  // set {P[0], P[1]} = 5 > 3.5 keeps one live process each, so the log
  // must still grow and agree. Only the survivors' clients submit.
  const auto layout = ClusterLayout::fig1_right();  // {0},{1..4},{5,6}
  ServiceRunConfig cfg = tob_config(layout, 5, 7);
  cfg.crashes = CrashPlan::none(7);
  for (const ProcId p : {1, 3, 4, 5, 6}) {
    cfg.crashes.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(0);
  }
  const auto r = run_service(cfg);
  EXPECT_TRUE(r.success()) << first_violation(r);
  EXPECT_EQ(r.batches, 2u);
  EXPECT_EQ(r.slot_logs[0], r.slot_logs[2]);
  EXPECT_EQ(batches_of(r.slot_logs[0]).size(), 2u);
}

TEST(TotalOrder, CrashedSubmitterBatchMayOrMayNotArrive) {
  // p3 crashes inside its first broadcast, reaching 2 processes. When it
  // flushed a batch, that broadcast was the batch's gossip: the batch may
  // be lost with p3 or delivered, and either way the logs must agree.
  ServiceRunConfig cfg =
      tob_config(ClusterLayout::from_sizes({2, 3, 2}), 6, 7);
  cfg.crashes = CrashPlan::none(7);
  cfg.crashes.specs[3] = CrashSpec::on_broadcast(0, 2);
  std::map<std::uint64_t, ProcId> flushed_by;
  const auto r = run_traced(cfg, flushed_by);
  ASSERT_TRUE(r.success()) << first_violation(r);
  ASSERT_EQ(r.crashed, 1u);
  const bool p3_submitted =
      std::any_of(flushed_by.begin(), flushed_by.end(),
                  [](const auto& f) { return f.second == 3; });
  ASSERT_TRUE(p3_submitted) << "p3 crashed before it submitted";
  // Every batch from a correct replica is in every correct log.
  for (const auto& [batch, origin] : flushed_by) {
    if (origin == 3) continue;
    for (ProcId p = 0; p < 7; ++p) {
      if (p == 3) continue;
      const auto log = batches_of(r.slot_logs[static_cast<std::size_t>(p)]);
      EXPECT_NE(std::find(log.begin(), log.end(), batch), log.end())
          << "batch " << batch << " (from p" << origin << ") missing at p"
          << p;
    }
  }
}

class TobSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TobSweep, RandomizedRunsAgreeAndDeliver) {
  const auto r =
      run_service(tob_config(ClusterLayout::even(8, 4), GetParam(), 6));
  ASSERT_TRUE(r.success())
      << "seed " << GetParam() << ": " << first_violation(r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TobSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(TotalOrder, ProposerCrashingMidUrbKeepsLogsIdentical) {
  // One client per replica. mid_broadcast crashes two random replicas
  // inside their broadcast 1 — a TOBSUBMIT gossip or relay, or the URB of
  // a slot's VALUE — each reaching a strict subset. A slot may still
  // decide a crashed proposer's batch; the replicas it did not reach wait
  // for the relayed VALUE.
  const auto layout = ClusterLayout::from_sizes({3, 3, 3});
  int crashed_proposer_decided = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(mix64(seed, 0x70C));
    const auto scenario = failure_patterns::mid_broadcast(layout, 2, 1, rng);
    ServiceRunConfig cfg = tob_config(layout, seed, 9);
    cfg.crashes = scenario.plan;
    std::map<std::uint64_t, ProcId> flushed_by;
    const auto r = run_traced(cfg, flushed_by);
    ASSERT_TRUE(r.success()) << "seed " << seed << ": " << first_violation(r);
    ASSERT_EQ(r.crashed, 2u) << "seed " << seed;

    const std::vector<SlotRecord>* first = nullptr;
    std::vector<std::vector<SlotRecord>> correct_logs;
    for (ProcId p = 0; p < layout.n(); ++p) {
      if (is_on_broadcast(scenario.plan, p)) continue;
      const auto& log = r.slot_logs[static_cast<std::size_t>(p)];
      if (first == nullptr) first = &log;
      EXPECT_EQ(log, *first) << "seed " << seed << ", p" << p;
      correct_logs.push_back(log);
    }
    const ServiceCheckReport check = check_service_logs(correct_logs);
    EXPECT_TRUE(check.ok) << "seed " << seed << ": "
                          << (check.violations.empty() ? ""
                                                       : check.violations[0]);
    ASSERT_NE(first, nullptr);
    const auto delivered = batches_of(*first);
    ASSERT_FALSE(delivered.empty());
    if (is_on_broadcast(scenario.plan, flushed_by.at(delivered[0]))) {
      ++crashed_proposer_decided;
    }
  }
  // The grid exercises the case this test is about.
  EXPECT_GT(crashed_proposer_decided, 0);
}

TEST(TotalOrder, RejectsNoopPayload) {
  const auto layout = ClusterLayout::from_sizes({2, 2});
  World world(layout.n(), 1, CrashPlan{},
              make_delay_model(DelayConfig::uniform(50, 150)));
  MemoryPool pool(layout.n());
  CommonCoin coin(1);
  TobProcess tob(0, layout, world.net(), pool, coin, 100);
  EXPECT_THROW(tob.submit(TobProcess::kNoop), ContractViolation);
}

TEST(TotalOrder, RejectsCrashPlanOfTheWrongSize) {
  ServiceRunConfig cfg = tob_config(ClusterLayout::even(8, 2), 1, 1);
  cfg.crashes = CrashPlan::none(3);
  EXPECT_THROW(run_service(cfg), ContractViolation);
}

}  // namespace
}  // namespace hyco
