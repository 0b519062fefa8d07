// Simulation driver for the multivalued consensus extension, mirroring
// core/runner.h.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cluster_layout.h"
#include "core/multivalued.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "shm/consensus_object.h"
#include "sim/crash.h"
#include "sim/simulator.h"

namespace hyco {

/// Description of one multivalued consensus run.
struct MultiRunConfig {
  explicit MultiRunConfig(ClusterLayout l) : layout(std::move(l)) {}

  ClusterLayout layout;
  /// Bits of the input domain: generated inputs are drawn from it, given
  /// inputs must fit in it. The run's cost does not depend on it.
  int width = 16;
  std::vector<std::uint64_t> inputs;  ///< empty = pseudorandom per process
  std::uint64_t seed = 1;
  DelayConfig delays = DelayConfig::uniform(50, 150);
  CrashPlan crashes;
  Round max_rounds_per_bit = 2000;
};

/// Outcome of a multivalued run.
struct MultiRunResult {
  std::vector<std::optional<std::uint64_t>> decisions;
  std::optional<std::uint64_t> decided_value;
  bool all_correct_decided = false;
  bool agreement_ok = true;
  bool validity_ok = true;
  NetStats net;
  ShmOpCounts shm;
  std::uint64_t consensus_objects = 0;
  std::uint64_t events = 0;
  SimTime end_time = 0;
  StopReason stop = StopReason::Quiescent;
  std::size_t crashed = 0;

  [[nodiscard]] bool success() const {
    return all_correct_decided && agreement_ok && validity_ok;
  }
};

/// Builds and runs one multivalued consensus simulation.
MultiRunResult run_multivalued(const MultiRunConfig& cfg);

}  // namespace hyco
