// Simulation driver for the total-order broadcast extension.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster_layout.h"
#include "core/total_order.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/crash.h"

namespace hyco {

/// One scheduled client submission.
struct TobSubmission {
  ProcId proc = 0;
  SimTime at = 0;
  std::uint64_t payload = 0;  ///< nonzero, unique per run
};

/// Description of one total-order broadcast run.
struct TobRunConfig {
  explicit TobRunConfig(ClusterLayout l) : layout(std::move(l)) {}

  ClusterLayout layout;
  std::vector<TobSubmission> submissions;
  std::uint64_t seed = 1;
  DelayConfig delays = DelayConfig::uniform(50, 150);
  CrashPlan crashes;
};

/// Outcome of a total-order broadcast run.
struct TobRunResult {
  std::vector<std::vector<std::uint64_t>> logs;  ///< per-process delivery log
  bool prefix_agreement = true;  ///< every pair of logs: one prefixes the other
  bool all_delivered = true;     ///< correct procs delivered every payload
                                 ///< submitted by a correct proc
  std::vector<std::string> violations;
  NetStats net;
  std::uint64_t events = 0;
  SimTime end_time = 0;
  std::size_t crashed = 0;

  [[nodiscard]] bool success() const {
    return prefix_agreement && all_delivered;
  }
};

/// Builds and runs one total-order broadcast simulation.
TobRunResult run_tob(const TobRunConfig& cfg);

}  // namespace hyco
