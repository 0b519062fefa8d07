// Thread host of the event-driven consensus processes: one std::thread per
// process, each an actor that calls start(input) and then feeds its mailbox
// to on_message until the process decides, parks or crashes. The processes
// are the ones the simulator runs (make_consensus_process), a cluster's
// members share one ClusterMemory, and the harvest is the simulator's
// (harvest_decisions). The runner waits for every thread or a wall-clock
// deadline, then closes the mailboxes and joins.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/cluster_layout.h"
#include "core/runner.h"
#include "core/types.h"
#include "sim/crash.h"

namespace hyco {

/// Description of one threaded run.
struct ThreadRunConfig {
  explicit ThreadRunConfig(ClusterLayout l) : layout(std::move(l)) {}

  ClusterLayout layout;
  Algorithm alg = Algorithm::HybridCommonCoin;  ///< not Algorithm::Mm
  std::vector<Estimate> inputs;  ///< empty = split inputs
  std::uint64_t seed = 1;
  Round max_rounds = 2000;
  CrashPlan crashes;  ///< empty = nobody crashes; OnBroadcast specs only
  std::chrono::milliseconds deadline{10'000};
};

/// A threaded run's result: the simulator's RunResult fields the harvest
/// fills (decisions, rounds, process stats, crashed, verdicts), plus what
/// only a thread host has.
struct ThreadRunResult : RunResult {
  bool deadline_hit = false;  ///< some thread was still running at the deadline
  std::uint64_t messages_sent = 0;

  [[nodiscard]] bool success() const {
    return RunResult::success() && !deadline_hit;
  }
};

/// Runs one consensus instance on threads. An exception on a process's
/// thread (a ContractViolation from its handler) is rethrown here once
/// every thread has joined.
ThreadRunResult run_threaded(const ThreadRunConfig& cfg);

}  // namespace hyco
