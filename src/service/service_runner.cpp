#include "service/service_runner.h"

#include <algorithm>
#include <memory>

#include "coin/coin.h"
#include "core/multivalued.h"
#include "core/world.h"
#include "service/replica.h"
#include "service/traffic.h"
#include "sim/trace.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {

ServiceRunResult run_service(const ServiceRunConfig& cfg) {
  const ProcId n = cfg.layout.n();
  HYCO_CHECK_MSG(cfg.clients >= 1, "service runs need at least one client");

  Trace* trace =
      (cfg.enable_trace && cfg.trace_sink != nullptr) ? cfg.trace_sink
                                                      : nullptr;
  World world(n, cfg.seed, cfg.crashes,
              cfg.delay_factory ? cfg.delay_factory()
                                : make_delay_model(cfg.delays),
              trace, cfg.scenario, &cfg.layout);
  Simulator& sim = world.sim();
  SimNetwork& net = world.net();
  CrashTracker& tracker = world.tracker();

  MemoryPool pool(n, ConsensusImpl::Cas);

  // The service always runs the Algorithm 3 common-coin core (the TOB's
  // embedded instances need the shared coin); same seed stream and
  // imperfect-coin ablation as run_consensus.
  std::unique_ptr<ICommonCoin> coin;
  const std::uint64_t coin_seed = mix64(cfg.seed, 0xC01C01);
  if (cfg.coin_epsilon > 0.0) {
    coin = std::make_unique<BiasedCommonCoin>(coin_seed, cfg.coin_epsilon,
                                              kAdversaryBit);
  } else {
    coin = std::make_unique<CommonCoin>(coin_seed);
  }

  BatchRegistry registry;
  std::vector<std::unique_ptr<ServiceReplica>> replicas;
  replicas.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    replicas.push_back(std::make_unique<ServiceReplica>(
        p, cfg.layout, net, pool, *coin, sim, tracker, registry,
        cfg.max_rounds_per_bit, cfg.batch_max, cfg.batch_delay));
  }
  net.set_deliver([&](ProcId to, ProcId from, const Message& m) {
    replicas[static_cast<std::size_t>(to)]->on_message(from, m);
  });

  TrafficConfig tcfg;
  tcfg.clients = cfg.clients;
  tcfg.ops_per_client = cfg.ops_per_client;
  tcfg.load = cfg.load;
  TrafficEngine traffic(
      sim, tracker, tcfg, cfg.seed, n,
      [&replicas, &sim, trace](ProcId origin, std::uint64_t op_id) {
        if (trace != nullptr) {
          trace->record({.at = sim.now(), .kind = TraceKind::SvcOp,
                         .proc = origin, .args = {op_id}});
        }
        replicas[static_cast<std::size_t>(origin)]->submit_op(op_id);
      });

  // An op completes for its client when the origin replica delivers the
  // batch containing it (every replica delivers every batch; the client is
  // attached to one). Delivery also closes the attribution chain: the op's
  // latency splits exactly into batching wait (submit -> flush), slot
  // queueing (flush -> the deciding slot's consensus start at the
  // completing replica), and consensus/delivery (slot start -> now).
  ExactMoments batch_wait;
  obs::LogHistogram batch_wait_hist;
  ExactMoments seq_wait;
  obs::LogHistogram seq_wait_hist;
  ExactMoments consensus;
  obs::LogHistogram consensus_hist;
  for (ProcId p = 0; p < n; ++p) {
    ServiceReplica& rep = *replicas[static_cast<std::size_t>(p)];
    rep.set_on_deliver([&, p](const Batch& batch, int slot) {
      if (trace != nullptr) {
        trace->record({.at = sim.now(), .kind = TraceKind::SvcDeliver,
                       .proc = p,
                       .args = {static_cast<std::uint64_t>(slot), batch.id,
                                batch.ops.size()}});
      }
      for (const std::uint64_t op_id : batch.ops) {
        if (!traffic.on_op_completed(op_id, sim.now())) continue;
        const ClientOp& op = traffic.ops()[op_id - 1];
        // slot_started_at is -1 when this replica never ran the slot
        // (e.g. it learned the decision from peers); the max() clamps the
        // span to start no earlier than the batch existed.
        const SimTime started =
            replicas[static_cast<std::size_t>(p)]->slot_started_at(slot);
        const SimTime s = std::max(started, batch.flushed_at);
        batch_wait.add(
            static_cast<std::uint64_t>(batch.flushed_at - op.submit_time));
        batch_wait_hist.add(
            static_cast<std::uint64_t>(batch.flushed_at - op.submit_time));
        seq_wait.add(static_cast<std::uint64_t>(s - batch.flushed_at));
        seq_wait_hist.add(static_cast<std::uint64_t>(s - batch.flushed_at));
        consensus.add(static_cast<std::uint64_t>(sim.now() - s));
        consensus_hist.add(static_cast<std::uint64_t>(sim.now() - s));
      }
    });
    if (trace != nullptr) {
      rep.set_on_flush([trace, &sim, p](const Batch& batch) {
        trace->record({.at = sim.now(), .kind = TraceKind::SvcFlush,
                       .proc = p, .args = {batch.id, batch.ops.size()}});
      });
      rep.set_on_slot_start([trace, &sim, p](int slot) {
        trace->record({.at = sim.now(), .kind = TraceKind::SvcSlot,
                       .proc = p, .args = {static_cast<std::uint64_t>(slot)}});
      });
    }
  }

  for (const CrashSpec& spec : cfg.crashes.specs) {
    HYCO_CHECK_MSG(spec.kind != CrashSpec::Kind::OnBroadcast,
                   "service runs support AtTime crash specs only");
  }
  world.schedule_crashes();
  // Scenario crash-recovery cycles: the replica's state survives (crash-
  // recovery with stable storage); messages sent into the down window are
  // lost, so a recovered replica may stall on in-flight slots — safety is
  // the guarantee, termination returns when enough traffic flows again.
  world.schedule_rejoins();

  traffic.start();

  ServiceRunResult result;
  result.stop = sim.run(cfg.max_events);
  result.end_time = sim.now();
  result.events = sim.events_executed();
  result.crashed = tracker.crashed_count();
  result.net = net.stats();
  result.shm = pool.total();
  result.consensus_objects = pool.objects_created();

  result.ops_submitted = traffic.submitted();
  result.ops_completed = traffic.completed();
  result.batches = registry.count();
  result.latency = traffic.latency();
  result.latency_hist = traffic.latency_hist();
  result.batch_wait = batch_wait;
  result.batch_wait_hist = batch_wait_hist;
  result.seq_wait = seq_wait;
  result.seq_wait_hist = seq_wait_hist;
  result.consensus = consensus;
  result.consensus_hist = consensus_hist;

  result.slot_logs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    const auto& log = replicas[static_cast<std::size_t>(p)]->slot_log();
    result.slots = std::max<std::uint64_t>(result.slots, log.size());
    result.slot_logs.push_back(log);
  }

  ServiceCheckReport check = check_service_logs(result.slot_logs);
  result.safe_ok = check.ok;
  result.violations = std::move(check.violations);

  // Terminated = the closed loop drained: every op submitted at a replica
  // never scheduled to go down completed at that replica.
  result.terminated = true;
  for (const ClientOp& op : traffic.ops()) {
    if (world.scheduled_down(op.origin)) continue;
    if (!op.completed) {
      result.terminated = false;
      break;
    }
  }
  return result;
}

}  // namespace hyco
