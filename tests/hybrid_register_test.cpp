// Tests of the hybrid-model atomic register (one-for-all ABD emulation):
// atomicity across random workloads, the cluster-closure quorum property
// (a register op survives a majority crash with a live majority cluster),
// and the standalone history checker.
#include <gtest/gtest.h>

#include "util/assert.h"
#include "workload/register_harness.h"

namespace hyco {
namespace {

TEST(HybridRegister, SingleWriterSingleReaderBasics) {
  RegisterRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.ops_per_process = 4;
  cfg.seed = 1;
  const auto r = run_register_workload(cfg);
  ASSERT_TRUE(r.success()) << (r.violations.empty() ? "incomplete"
                                                    : r.violations[0]);
  EXPECT_EQ(r.history.size(), 7u * 4u);
}

TEST(HybridRegister, ReadsSeeCompletedWrites) {
  // With write_fraction 1.0 then a read-only pass we cannot easily
  // interleave via config; instead rely on mixed workload + checker rule:
  // any read after a completed write must return ts >= that write's.
  RegisterRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.ops_per_process = 8;
  cfg.write_fraction = 0.7;
  cfg.seed = 2;
  const auto r = run_register_workload(cfg);
  ASSERT_TRUE(r.atomicity_ok) << r.violations[0];
  // At least one read observed a non-initial value in a write-heavy run.
  bool read_saw_write = false;
  for (const auto& op : r.history) {
    if (!op.is_write && op.ts.seq > 0) read_saw_write = true;
  }
  EXPECT_TRUE(read_saw_write);
}

class RegisterSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RegisterSweep, RandomWorkloadsAreAtomic) {
  const auto [shape, seed] = GetParam();
  const auto layout = shape == 0   ? ClusterLayout::from_sizes({2, 3, 2})
                      : shape == 1 ? ClusterLayout::singletons(5)
                      : shape == 2 ? ClusterLayout::single(6)
                                   : ClusterLayout::even(12, 4);
  RegisterRunConfig cfg(layout);
  cfg.ops_per_process = 6;
  cfg.seed = seed;
  cfg.delays = (seed % 2 == 0) ? DelayConfig::uniform(1, 400)
                               : DelayConfig::exponential(90.0);
  const auto r = run_register_workload(cfg);
  ASSERT_TRUE(r.atomicity_ok)
      << "seed " << seed << ": " << r.violations[0];
  EXPECT_TRUE(r.all_correct_completed) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RegisterSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Range<std::uint64_t>(1, 11)));

TEST(HybridRegister, SurvivesMajorityCrashWithMajorityCluster) {
  // fig1_right: crash everything but p2 (member of the majority cluster)
  // at t=0; the survivor must still complete ALL its operations — the
  // one-for-all quorum at work. Pure-ABD over processes would block
  // (no process majority alive).
  const auto layout = ClusterLayout::fig1_right();
  RegisterRunConfig cfg(layout);
  cfg.ops_per_process = 5;
  cfg.seed = 3;
  cfg.crashes = CrashPlan::none(7);
  for (const ProcId p : {0, 1, 3, 4, 5, 6}) {
    cfg.crashes.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(0);
  }
  const auto r = run_register_workload(cfg);
  ASSERT_TRUE(r.atomicity_ok) << r.violations[0];
  EXPECT_TRUE(r.all_correct_completed) << "the survivor must finish its ops";
  EXPECT_EQ(r.crashed, 6u);
}

TEST(HybridRegister, BlocksWithoutCoveringSetButHistoryStaysAtomic) {
  // Kill whole clusters covering a majority: pending ops cannot finish,
  // but everything that DID complete must still be atomic.
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});
  RegisterRunConfig cfg(layout);
  cfg.ops_per_process = 50;  // far more than can finish before the crash
  cfg.seed = 4;
  cfg.crashes = CrashPlan::none(7);
  for (const ProcId p : {2, 3, 4, 5, 6}) {  // clusters 1 and 2 die at t=800
    cfg.crashes.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(800);
  }
  const auto r = run_register_workload(cfg);
  EXPECT_TRUE(r.atomicity_ok) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_FALSE(r.all_correct_completed);
}

TEST(RegisterChecker, AcceptsLegalHistory) {
  std::vector<RegOpRecord> h{
      {0, true, 100, {1, 0}, 0, 10},
      {1, false, 100, {1, 0}, 20, 30},
      {1, true, 200, {2, 1}, 40, 50},
      {0, false, 200, {2, 1}, 60, 70},
  };
  std::vector<std::string> v;
  EXPECT_TRUE(check_register_atomicity(h, v));
}

TEST(RegisterChecker, CatchesStaleReadAfterWrite) {
  std::vector<RegOpRecord> h{
      {0, true, 100, {1, 0}, 0, 10},
      {1, false, 0, {0, -1}, 20, 30},  // reads initial AFTER the write ended
  };
  std::vector<std::string> v;
  EXPECT_FALSE(check_register_atomicity(h, v));
}

TEST(RegisterChecker, CatchesNewOldInversion) {
  std::vector<RegOpRecord> h{
      {0, true, 100, {1, 0}, 0, 10},
      {1, true, 200, {2, 1}, 15, 25},
      {2, false, 200, {2, 1}, 30, 40},
      {3, false, 100, {1, 0}, 45, 55},  // older value read later
  };
  std::vector<std::string> v;
  EXPECT_FALSE(check_register_atomicity(h, v));
}

TEST(RegisterChecker, CatchesDuplicateWriteTimestamps) {
  std::vector<RegOpRecord> h{
      {0, true, 100, {1, 0}, 0, 10},
      {0, true, 101, {1, 0}, 20, 30},
  };
  std::vector<std::string> v;
  EXPECT_FALSE(check_register_atomicity(h, v));
}

TEST(RegisterChecker, CatchesValueMismatch) {
  std::vector<RegOpRecord> h{
      {0, true, 100, {1, 0}, 0, 10},
      {1, false, 999, {1, 0}, 20, 30},
  };
  std::vector<std::string> v;
  EXPECT_FALSE(check_register_atomicity(h, v));
}

TEST(HybridRegister, RejectsConcurrentOpsFromOneProcess) {
  const auto layout = ClusterLayout::from_sizes({2, 2});
  Simulator sim(1);
  ConstantDelay delay(10);
  CrashTracker tracker(4);
  SimNetwork net(sim, delay, tracker, 4);
  ClusterRegState state;
  RegisterProcess proc(0, layout, net, state);
  net.set_deliver([&](ProcId to, ProcId from, const Message& m) {
    if (to == 0) proc.on_message(from, m);
  });
  proc.write(1, nullptr);
  EXPECT_TRUE(proc.op_in_flight());
  EXPECT_THROW(proc.read(nullptr), ContractViolation);
}

TEST(HybridRegister, RejectsCrashPlanOfTheWrongSize) {
  RegisterRunConfig cfg(ClusterLayout::even(8, 2));
  cfg.crashes = CrashPlan::none(3);
  EXPECT_THROW(run_register_workload(cfg), ContractViolation);
}

}  // namespace
}  // namespace hyco
