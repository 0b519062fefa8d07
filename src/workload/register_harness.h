// Workload driver + atomicity checker for the hybrid-model register
// emulation: every process issues a randomized sequence of reads and
// uniquely-valued writes; the recorded history is then checked against the
// observable conditions of MWMR atomicity (real-time order respected by
// linearization timestamps, reads return actually-written values, no
// new/old inversion).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster_layout.h"
#include "core/hybrid_register.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/crash.h"
#include "sim/simulator.h"

namespace hyco {

/// One completed operation in the history.
struct RegOpRecord {
  ProcId proc = -1;
  bool is_write = false;
  std::uint64_t value = 0;  ///< written value, or value returned by the read
  RegTimestamp ts;          ///< linearization timestamp
  SimTime invoked = 0;
  SimTime responded = 0;
};

/// Description of one register workload run.
struct RegisterRunConfig {
  explicit RegisterRunConfig(ClusterLayout l) : layout(std::move(l)) {}

  ClusterLayout layout;
  int ops_per_process = 6;
  double write_fraction = 0.5;
  std::uint64_t seed = 1;
  DelayConfig delays = DelayConfig::uniform(50, 150);
  CrashPlan crashes;
};

/// Outcome of a register workload run.
struct RegisterRunResult {
  std::vector<RegOpRecord> history;  ///< completed operations only
  bool atomicity_ok = true;
  std::vector<std::string> violations;
  bool all_correct_completed = false;  ///< every live process ran all its ops
  NetStats net;
  SimTime end_time = 0;
  std::size_t crashed = 0;

  [[nodiscard]] bool success() const {
    return atomicity_ok && all_correct_completed;
  }
};

/// Runs the workload and checks the history.
RegisterRunResult run_register_workload(const RegisterRunConfig& cfg);

/// Standalone history checker (exposed for direct unit testing): appends
/// human-readable violations and returns true iff the history is atomic.
bool check_register_atomicity(const std::vector<RegOpRecord>& history,
                              std::vector<std::string>& violations);

}  // namespace hyco
