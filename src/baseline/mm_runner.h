// Simulation driver for the m&m comparator, mirroring core/runner.h for the
// graph-defined memory domain (experiments FIG2 and T-INV).
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/mm_domain.h"
#include "core/runner.h"
#include "net/delay_model.h"
#include "sim/crash.h"

namespace hyco {

/// Plain-data description of one m&m simulation run.
struct MmRunConfig {
  explicit MmRunConfig(MmDomain d) : domain(std::move(d)) {}

  MmDomain domain;
  std::vector<Estimate> inputs;  ///< empty = split inputs
  std::uint64_t seed = 1;
  DelayConfig delays = DelayConfig::uniform(50, 150);
  CrashPlan crashes;
  Round max_rounds = 5000;
};

/// Runs one m&m consensus simulation. The returned RunResult's
/// invariants_ok covers agreement/validity only (WA1/WA2 are cluster-model
/// notions).
RunResult run_mm(const MmRunConfig& cfg);

}  // namespace hyco
