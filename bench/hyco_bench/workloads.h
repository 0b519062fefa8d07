// hyco_bench workloads: four experiment grids, each built from the seed
// exactly as `sweep` would build it from flags, so a workload is a sweep
// invocation with a name. README.md records why each one exists and which
// layers it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/spec.h"
#include "scenario/engine.h"
#include "scenario/scenario.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco_bench {

struct Workload {
  const char* name;
  unsigned threads;  ///< ParallelExecutor workers in the e2e passes
  /// Runs per work unit (sweep --chunk), about 10 ms of work. The
  /// executor's default grain leaves each worker ~4 chunks per repetition,
  /// so whichever worker draws the slowest last chunk moves a
  /// repetition's wall time by up to a quarter; at ~10 ms the tail stays
  /// near 1% of a repetition.
  std::uint64_t chunk;
  bool service;  ///< cells run the replicated service (run_service)
};

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"grid-small", 4, 32, false},
      {"grid-wide", 1, 2, false},
      {"grid-faults", 4, 8, false},
      {"svc-batched", 4, 1, true},
  };
  return kAll;
}

/// The named workload; throws ContractViolation listing the valid names.
inline const Workload& find_workload(const std::string& name) {
  std::string valid;
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
    valid += valid.empty() ? "" : " | ";
    valid += w.name;
  }
  HYCO_CHECK_MSG(false, "--workload: unknown workload \"" << name
                            << "\" (want " << valid << ")");
  return workloads().front();  // unreachable
}

/// grid-faults' scenario, as sweep parses --loss=0.05 --dup=0.05
/// --reorder=100 --partition=cluster:0@100..2000. The cut opens at 100 ns,
/// inside the first broadcast wave, and heals at 2 us, after runs without
/// it would have decided, so it holds real traffic (a 5ms..20ms cut would
/// never see a message).
inline hyco::ScenarioConfig fault_scenario() {
  hyco::ScenarioConfig scn;
  scn.link.loss = 0.05;
  scn.link.dup = 0.05;
  scn.link.reorder_max = hyco::parse_sim_time("100");
  scn.partitions.push_back(hyco::parse_partition_spec("cluster:0@100..2000"));
  return scn;
}

/// Crash plan `i` of grid-faults: kCrashes random processes crashing at
/// random times in [0, 300] ns — sweep's --crash=minority draw (same Rng
/// salt, offset by i) with the crash count fixed instead of uniform in
/// [0, (n-1)/2]. A cell's plan is shared by all its runs, so with a random
/// count one seed crashes nobody and the next seven, and run cost tracks
/// the seed, not the code. Three, not the largest minority: with seven of
/// sixteen down, 5% loss leaves about one run in 8000 undecided.
constexpr hyco::ProcId kCrashes = 3;

inline hyco::CrashAxis minority_crashes(std::uint64_t seed, std::uint64_t i) {
  return hyco::CrashAxis::of(
      "minority" + std::to_string(i),
      [seed, i](const hyco::ClusterLayout& layout) {
        hyco::Rng rng(hyco::mix64(seed, 0xC8A5 + i));
        const hyco::ProcId n = layout.n();
        std::vector<hyco::ProcId> order(static_cast<std::size_t>(n));
        for (hyco::ProcId p = 0; p < n; ++p) {
          order[static_cast<std::size_t>(p)] = p;
        }
        rng.shuffle(order);
        hyco::CrashPlan plan = hyco::CrashPlan::none(order.size());
        for (hyco::ProcId k = 0; k < kCrashes; ++k) {
          plan.specs[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] =
              hyco::CrashSpec::at_time(rng.uniform(0, 300));
        }
        return plan;
      });
}

/// The grid a workload runs for one repetition. Split inputs and
/// uniform(50,150) delays throughout (the spec defaults).
inline hyco::ExperimentSpec make_spec(const Workload& w, std::uint64_t seed) {
  using hyco::Algorithm;
  using hyco::ClusterLayout;
  hyco::ExperimentSpec spec;
  spec.name = std::string("hyco_bench/") + w.name;
  spec.base_seed = seed;
  const std::string name = w.name;
  if (name == "grid-small") {
    spec.algorithms = {Algorithm::HybridCommonCoin};
    spec.layouts = {ClusterLayout::even(8, 4), ClusterLayout::even(16, 4),
                    ClusterLayout::even(32, 4)};
    spec.runs_per_cell = 5000;
  } else if (name == "grid-wide") {
    spec.algorithms = {Algorithm::HybridCommonCoin};
    spec.layouts = {ClusterLayout::even(128, 8)};
    spec.runs_per_cell = 400;
  } else if (name == "grid-faults") {
    // Eight crash plans, one per cell, so a repetition averages over them.
    spec.algorithms = {Algorithm::HybridLocalCoin};
    spec.layouts = {ClusterLayout::even(16, 4)};
    spec.crashes.clear();
    for (std::uint64_t i = 0; i < 8; ++i) {
      spec.crashes.push_back(minority_crashes(seed, i));
    }
    spec.scenarios = {hyco::ScenarioAxis::of(fault_scenario())};
    spec.runs_per_cell = 500;
  } else {
    HYCO_CHECK_MSG(name == "svc-batched", "no grid for workload " << name);
    spec.algorithms = {Algorithm::HybridCommonCoin};
    spec.layouts = {ClusterLayout::even(8, 2)};
    spec.services = {hyco::ServiceAxis::of(2'000, 1, 64, 50'000, 0.0)};
    spec.runs_per_cell = 800;
  }
  for (const auto& axis : spec.scenarios) {
    for (const auto& layout : spec.layouts) {
      hyco::validate_scenario(axis.config, layout);
    }
  }
  return spec;
}

}  // namespace hyco_bench
