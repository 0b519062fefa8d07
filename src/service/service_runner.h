// One-call driver for the replicated service: builds the run's World
// (core/world.h), then the coin, replicas, batchers, and the closed-loop
// traffic engine for a configuration; runs to quiescence (or a limit); and
// returns the decided slot logs plus throughput/latency instrumentation.
// The service analogue of run_consensus() — every service test and the
// experiment engine's service cells go through run_service().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster_layout.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "service/checker.h"
#include "service/types.h"
#include "shm/op_counts.h"
#include "sim/crash.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace hyco {

class Trace;

/// Plain-data description of one replicated-service run.
struct ServiceRunConfig {
  explicit ServiceRunConfig(ClusterLayout l) : layout(std::move(l)) {}

  ClusterLayout layout;
  std::uint64_t seed = 1;
  DelayConfig delays = DelayConfig::uniform(50, 150);
  /// Optional override: build a custom delay model; `delays` is then ignored.
  std::function<std::unique_ptr<DelayModel>()> delay_factory;
  CrashPlan crashes;  ///< empty specs = nobody crashes (AtTime kinds only)
  /// Adversarial scenario (partitions, link faults, crash-recovery, skew).
  /// Safety must hold under any of them; termination only when the fault
  /// heals (indulgence, as for single-instance consensus).
  ScenarioConfig scenario;
  Round max_rounds_per_bit = 2000;
  std::uint64_t max_events = 800'000'000;
  /// Common-coin imperfection, as in RunConfig (the service always runs on
  /// the Algorithm 3 common-coin core).
  double coin_epsilon = 0.0;

  // Workload: closed-loop clients and the batching policy.
  std::uint64_t clients = 1000;
  std::uint64_t ops_per_client = 1;
  std::size_t batch_max = 64;
  SimTime batch_delay = 50'000;  ///< ns; 0 = flush every op (batching off)
  double load = 0.0;  ///< offered load, ops/sec; 0 = no think time

  /// Event tracing, as in RunConfig: with enable_trace and a caller-owned
  /// sink, the network records Send/Deliver/Drop with causal ids and the
  /// service layer records SvcOp/SvcFlush/SvcSlot/SvcDeliver milestones.
  /// Strictly out of band — traced runs are byte-identical to untraced.
  bool enable_trace = false;
  Trace* trace_sink = nullptr;
};

/// Everything observable about a finished service run.
struct ServiceRunResult {
  std::vector<std::vector<SlotRecord>> slot_logs;  ///< per replica
  std::uint64_t ops_submitted = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t batches = 0;  ///< batches minted (== proposals submitted)
  std::uint64_t slots = 0;    ///< most slots decided by any replica
  /// Every op submitted at a never-crashed replica completed.
  bool terminated = false;
  bool safe_ok = true;  ///< the gap/duplicate/agreement checker passed
  std::vector<std::string> violations;
  ExactMoments latency;            ///< per-op client latency, sim ns
  obs::LogHistogram latency_hist;  ///< same samples, log-bucketed
  /// Latency attribution, one sample set per completed op, decomposing the
  /// client-visible latency exactly: batching wait (submit -> batch flush)
  /// + slot queueing (flush -> deciding slot's consensus start at the
  /// completing replica) + consensus/delivery (slot start -> delivery).
  ExactMoments batch_wait;
  obs::LogHistogram batch_wait_hist;
  ExactMoments seq_wait;
  obs::LogHistogram seq_wait_hist;
  ExactMoments consensus;
  obs::LogHistogram consensus_hist;
  NetStats net;
  ShmOpCounts shm;
  std::uint64_t consensus_objects = 0;
  std::uint64_t events = 0;
  SimTime end_time = 0;
  std::size_t crashed = 0;
  StopReason stop = StopReason::Quiescent;

  [[nodiscard]] bool success() const { return terminated && safe_ok; }
  /// Decided ops per second of sim time, as an exact integer (ops * 1e9 /
  /// end_time) so aggregation stays merge-order-invariant.
  [[nodiscard]] std::uint64_t ops_per_sec() const {
    if (end_time <= 0) return 0;
    return ops_completed * 1'000'000'000ULL /
           static_cast<std::uint64_t>(end_time);
  }
};

/// Builds and runs one replicated-service simulation.
ServiceRunResult run_service(const ServiceRunConfig& cfg);

}  // namespace hyco
