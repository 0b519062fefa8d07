// Two-host differential test: the simulator (run_consensus) and the thread
// host (run_threaded) run the same process code. Each case gives both hosts
// the same layout, inputs and random mid-broadcast crash plan over 200
// seeds. Both hosts must stay safe and valid, the simulator's invariants
// must hold, and both must terminate whenever the clusters that keep a
// never-crashing member cover a majority. Runs that break covering block on
// threads until a short deadline, by design.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/runner.h"
#include "runtime/threaded_runner.h"
#include "util/rng.h"

namespace hyco {
namespace {

constexpr std::uint64_t kSeeds = 200;

/// Crashes `count` distinct random processes, each in one of its first
/// four broadcasts, reaching a random number of peers.
CrashPlan random_plan(ProcId n, int count, Rng& rng) {
  CrashPlan plan = CrashPlan::none(static_cast<std::size_t>(n));
  std::vector<ProcId> procs(static_cast<std::size_t>(n));
  std::iota(procs.begin(), procs.end(), 0);
  rng.partial_shuffle(procs, static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    plan.specs[static_cast<std::size_t>(procs[static_cast<std::size_t>(i)])] =
        CrashSpec::on_broadcast(static_cast<std::int32_t>(rng.uniform(0, 3)),
                                static_cast<std::int32_t>(rng.uniform(0, n)));
  }
  return plan;
}

/// Whether the clusters with a never-crashing member cover a majority.
bool covering(const ClusterLayout& layout, const CrashPlan& plan) {
  ProcId covered = 0;
  for (ClusterId x = 0; x < layout.m(); ++x) {
    for (const ProcId p : layout.members(x)) {
      if (plan.specs[static_cast<std::size_t>(p)].kind ==
          CrashSpec::Kind::None) {
        covered += layout.cluster_size(x);
        break;
      }
    }
  }
  return 2 * covered > layout.n();
}

void run_both_hosts(Algorithm alg, const ClusterLayout& layout, int crashes,
                    std::uint64_t base) {
  const ProcId n = layout.n();
  int covered_runs = 0;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    const std::uint64_t seed = mix64(base, s);
    Rng rng(seed);
    std::vector<Estimate> inputs(static_cast<std::size_t>(n));
    for (Estimate& v : inputs) v = estimate_from_bit(rng.coin());
    const CrashPlan plan = random_plan(n, crashes, rng);
    const bool covers = covering(layout, plan);
    covered_runs += covers ? 1 : 0;

    RunConfig sim_cfg(layout);
    sim_cfg.alg = alg;
    sim_cfg.inputs = inputs;
    sim_cfg.seed = seed;
    sim_cfg.crashes = plan;
    const RunResult sim = run_consensus(sim_cfg);
    EXPECT_TRUE(sim.safe()) << "simulator, seed " << seed;
    if (covers) {
      EXPECT_TRUE(sim.success()) << "simulator, seed " << seed;
    }

    ThreadRunConfig thr_cfg(layout);
    thr_cfg.alg = alg;
    thr_cfg.inputs = inputs;
    thr_cfg.seed = seed;
    thr_cfg.crashes = plan;
    if (!covers) thr_cfg.deadline = std::chrono::milliseconds(100);
    const ThreadRunResult thr = run_threaded(thr_cfg);
    EXPECT_TRUE(thr.agreement_ok && thr.validity_ok)
        << "threads, seed " << seed;
    if (covers) {
      EXPECT_TRUE(thr.success()) << "threads, seed " << seed;
    }
  }
  // Each case must mostly exercise the termination check.
  EXPECT_GE(covered_runs, static_cast<int>(kSeeds) / 2);
}

TEST(TwoHosts, LocalCoinWithoutCrashes) {
  run_both_hosts(Algorithm::HybridLocalCoin,
                 ClusterLayout::from_sizes({2, 3, 2}), 0, 0x2401);
}

TEST(TwoHosts, CommonCoinWithoutCrashes) {
  run_both_hosts(Algorithm::HybridCommonCoin,
                 ClusterLayout::from_sizes({3, 3}), 0, 0x2402);
}

TEST(TwoHosts, LocalCoinMajorityCluster) {
  // Five of seven crash; covering holds iff a member of the 4-cluster
  // survives.
  run_both_hosts(Algorithm::HybridLocalCoin,
                 ClusterLayout::from_sizes({1, 4, 2}), 5, 0x2403);
}

TEST(TwoHosts, CommonCoinMajorityCluster) {
  run_both_hosts(Algorithm::HybridCommonCoin,
                 ClusterLayout::from_sizes({1, 4, 2}), 5, 0x2404);
}

TEST(TwoHosts, LocalCoinSixteenProcesses) {
  run_both_hosts(Algorithm::HybridLocalCoin, ClusterLayout::even(16, 4), 6,
                 0x2405);
}

TEST(TwoHosts, CommonCoinSixteenProcesses) {
  run_both_hosts(Algorithm::HybridCommonCoin, ClusterLayout::even(16, 4), 6,
                 0x2406);
}

TEST(TwoHosts, BenOrMinorityCrashes) {
  // Singleton clusters: covering is a live majority, which three of seven
  // crashes keep.
  run_both_hosts(Algorithm::BenOr, ClusterLayout::even(7, 7), 3, 0x2407);
}

}  // namespace
}  // namespace hyco
