// Tests for the replicated service layer (src/service/): the decided-log
// safety checker, end-to-end closed-loop runs through run_service(), and
// safety under crashes and partitions. Every e2e test runs the standalone
// checker over the slot logs in addition to asserting the run's own
// safe_ok verdict.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/total_order.h"
#include "scenario/scenario.h"
#include "service/checker.h"
#include "service/service_runner.h"
#include "sim/trace.h"
#include "util/assert.h"
#include "workload/failure_patterns.h"

namespace hyco {
namespace {

std::vector<SlotRecord> log_of(std::vector<std::uint64_t> batches) {
  std::vector<SlotRecord> log;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    log.push_back({static_cast<int>(i), batches[i]});
  }
  return log;
}

TEST(ServiceChecker, AcceptsCleanLogsIncludingNoopsAndPrefixes) {
  const std::vector<std::vector<SlotRecord>> logs = {
      log_of({3, TobProcess::kNoop, 1, 2}),
      log_of({3, TobProcess::kNoop, 1}),  // shorter prefix is fine
      log_of({3, TobProcess::kNoop, 1, 2}),
  };
  const ServiceCheckReport rep = check_service_logs(logs);
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.violations.empty());
}

TEST(ServiceChecker, DetectsSlotGap) {
  std::vector<SlotRecord> log = log_of({1, 2});
  log.push_back({3, 5});  // slot 2 missing
  const ServiceCheckReport rep = check_service_logs({log});
  EXPECT_FALSE(rep.ok);
  ASSERT_FALSE(rep.violations.empty());
}

TEST(ServiceChecker, DetectsDuplicateBatchInOneLog) {
  const ServiceCheckReport rep = check_service_logs({log_of({7, 2, 7})});
  EXPECT_FALSE(rep.ok);
}

TEST(ServiceChecker, DetectsDivergentSlotAssignment) {
  const ServiceCheckReport rep = check_service_logs({
      log_of({1, 2, 3}),
      log_of({1, 3}),  // batch 3 at slot 1 here, slot 2 elsewhere
  });
  EXPECT_FALSE(rep.ok);
}

TEST(ServiceChecker, DetectsPrefixDisagreement) {
  const ServiceCheckReport rep = check_service_logs({
      log_of({1, 2}),
      log_of({1, 4}),
  });
  EXPECT_FALSE(rep.ok);
}

TEST(ServiceE2E, ClosedLoopDecidesEveryOpAndPassesTheChecker) {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.seed = 11;
  cfg.clients = 100;
  cfg.ops_per_client = 2;
  cfg.batch_max = 16;
  const ServiceRunResult r = run_service(cfg);

  EXPECT_TRUE(r.terminated);
  EXPECT_TRUE(r.safe_ok) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_EQ(r.ops_submitted, 200u);
  EXPECT_EQ(r.ops_completed, 200u);
  EXPECT_GT(r.batches, 0u);
  EXPECT_LE(r.batches, r.ops_completed);
  EXPECT_GT(r.slots, 0u);
  EXPECT_GT(r.ops_per_sec(), 0u);
  EXPECT_EQ(r.latency.count(), r.ops_completed);
  EXPECT_EQ(r.latency_hist.total(), r.ops_completed);
  EXPECT_TRUE(check_service_logs(r.slot_logs).ok);
}

TEST(ServiceE2E, BatchingCollapsesOpsIntoFewerProposals) {
  ServiceRunConfig batched(ClusterLayout::even(4, 2));
  batched.seed = 5;
  batched.clients = 80;
  batched.batch_max = 64;
  batched.batch_delay = 200'000;
  const ServiceRunResult rb = run_service(batched);

  ServiceRunConfig unbatched = batched;
  unbatched.batch_delay = 0;  // flush every op
  const ServiceRunResult ru = run_service(unbatched);

  ASSERT_TRUE(rb.success());
  ASSERT_TRUE(ru.success());
  EXPECT_EQ(rb.ops_completed, 80u);
  EXPECT_EQ(ru.ops_completed, 80u);
  // Unbatched: one proposal per op; batched: strictly fewer.
  EXPECT_EQ(ru.batches, 80u);
  EXPECT_LT(rb.batches, ru.batches);
  EXPECT_TRUE(check_service_logs(rb.slot_logs).ok);
  EXPECT_TRUE(check_service_logs(ru.slot_logs).ok);
}

TEST(ServiceE2E, OfferedLoadPacesArrivalsAndStillCompletes) {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.seed = 21;
  cfg.clients = 60;
  cfg.ops_per_client = 2;
  cfg.load = 1'000'000.0;  // 1M ops/sec across all clients
  const ServiceRunResult r = run_service(cfg);
  EXPECT_TRUE(r.success());
  EXPECT_EQ(r.ops_completed, 120u);
  EXPECT_TRUE(check_service_logs(r.slot_logs).ok);
}

TEST(ServiceE2E, SafeAndLiveWithTimedMinorityCrash) {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.seed = 31;
  cfg.clients = 80;
  cfg.crashes = CrashPlan::none(4);
  cfg.crashes.specs[3] = CrashSpec::at_time(100'000);
  const ServiceRunResult r = run_service(cfg);

  EXPECT_EQ(r.crashed, 1u);
  // Safety always; termination for ops at never-crashed origins.
  EXPECT_TRUE(r.safe_ok) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_TRUE(r.terminated);
  EXPECT_GT(r.ops_completed, 0u);
  EXPECT_TRUE(check_service_logs(r.slot_logs).ok);
}

TEST(ServiceE2E, SafeUnderHealingPartition) {
  ServiceRunConfig cfg(ClusterLayout::even(6, 3));
  cfg.seed = 41;
  cfg.clients = 60;
  cfg.scenario.partitions.push_back(
      parse_partition_spec("cluster:0@40us..400us"));
  const ServiceRunResult r = run_service(cfg);

  EXPECT_TRUE(r.safe_ok) << (r.violations.empty() ? "" : r.violations[0]);
  // The cut heals, so the run also terminates (indulgence).
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.ops_completed, 60u);
  EXPECT_TRUE(check_service_logs(r.slot_logs).ok);
}

TEST(ServiceE2E, SafeUnderMessageLossWithCorruptedCoin) {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.seed = 51;
  cfg.clients = 40;
  cfg.scenario.link.loss = 0.05;
  cfg.coin_epsilon = 0.2;
  const ServiceRunResult r = run_service(cfg);
  EXPECT_TRUE(r.safe_ok) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_TRUE(r.terminated);
  EXPECT_TRUE(check_service_logs(r.slot_logs).ok);
}

TEST(ServiceE2E, CrashedProcessProposesNoBatch) {
  // p0's four clients submit in [0, 1000] ns, so its batch sits below
  // batch_max when p0 crashes at 5 us; the batch's deadline timer fires
  // after the crash and must flush nothing into the TOB.
  constexpr SimTime kCrashAt = 5'000;
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.seed = 61;
  cfg.clients = 16;
  cfg.batch_max = 64;
  cfg.batch_delay = 50'000;
  cfg.crashes = CrashPlan::none(4);
  cfg.crashes.specs[0] = CrashSpec::at_time(kCrashAt);
  Trace trace(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &trace;
  const ServiceRunResult r = run_service(cfg);

  std::uint64_t p0_ops = 0, flushes = 0;
  trace.for_each([&](const TraceRecord& rec) {
    if (rec.kind == TraceKind::SvcOp && rec.proc == 0) ++p0_ops;
    if (rec.kind != TraceKind::SvcFlush) return;
    ++flushes;
    if (rec.proc == 0) {
      EXPECT_LT(rec.at, kCrashAt) << "p0 flushed batch " << rec.args[0];
    }
  });
  EXPECT_EQ(p0_ops, 4u);
  EXPECT_EQ(r.crashed, 1u);
  EXPECT_EQ(r.batches, flushes);
  EXPECT_TRUE(r.safe_ok) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_TRUE(check_service_logs(r.slot_logs).ok);
}

TEST(ServiceE2E, RejectsTraceWithoutSink) {
  ServiceRunConfig cfg(ClusterLayout::even(4, 2));
  cfg.clients = 10;
  cfg.enable_trace = true;
  EXPECT_THROW(run_service(cfg), ContractViolation);
}

/// ⌊(n−1)/2⌋ replicas crash inside their broadcast 0, 1 or 2, each reaching
/// a random strict subset: 100 seeds per (layout, index). Every run must be
/// safe, and every run whose plan keeps a covering cluster set alive must
/// drain its closed loop. Index 0 on {3,3,3} (four crashes) is the shape
/// where a replica that crashed inside its VALUE broadcast would stall
/// every live replica if it went on to propose its own index bit.
class ServiceMidBroadcast : public ::testing::TestWithParam<ClusterLayout> {};

TEST_P(ServiceMidBroadcast, SafeAndLiveWhenCovered) {
  const ClusterLayout& layout = GetParam();
  const ProcId crashes = (layout.n() - 1) / 2;
  int covered = 0;
  for (const std::int32_t index : {0, 1, 2}) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      Rng rng(mix64(seed, 0x3B0 + static_cast<std::uint64_t>(index)));
      const auto scenario =
          failure_patterns::mid_broadcast(layout, crashes, index, rng);
      ServiceRunConfig cfg(layout);
      cfg.seed = seed;
      cfg.clients = 3 * static_cast<std::uint64_t>(layout.n());
      cfg.ops_per_client = 2;
      cfg.batch_delay = 0;
      cfg.crashes = scenario.plan;
      const ServiceRunResult r = run_service(cfg);
      const std::string at = layout.to_string() + " index " +
                             std::to_string(index) + " seed " +
                             std::to_string(seed);
      ASSERT_TRUE(r.safe_ok)
          << at << ": " << (r.violations.empty() ? "" : r.violations[0]);
      if (scenario.hybrid_should_terminate) {
        ++covered;
        ASSERT_TRUE(r.terminated) << at << ": " << r.ops_completed << " of "
                                  << r.ops_submitted << " ops completed";
      }
    }
  }
  EXPECT_GT(covered, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ServiceMidBroadcast,
    ::testing::Values(ClusterLayout::from_sizes({3, 3, 3}),
                      ClusterLayout::from_sizes({2, 3, 2}),
                      ClusterLayout::fig1_right(), ClusterLayout::even(8, 2),
                      ClusterLayout::singletons(5)));

}  // namespace
}  // namespace hyco
