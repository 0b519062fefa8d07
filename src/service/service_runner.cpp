#include "service/service_runner.h"

#include <algorithm>
#include <memory>

#include "coin/coin.h"
#include "core/multivalued.h"
#include "core/total_order.h"
#include "core/world.h"
#include "service/batcher.h"
#include "service/traffic.h"
#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {

ServiceRunResult run_service(const ServiceRunConfig& cfg) {
  const ProcId n = cfg.layout.n();
  HYCO_CHECK_MSG(cfg.clients >= 1, "service runs need at least one client");
  Trace* trace = trace_ring(cfg.enable_trace, cfg.trace_sink);
  World world(n, cfg.seed, cfg.crashes,
              cfg.delay_factory ? cfg.delay_factory()
                                : make_delay_model(cfg.delays),
              trace, cfg.scenario, &cfg.layout);
  Simulator& sim = world.sim();
  SimNetwork& net = world.net();
  CrashTracker& tracker = world.tracker();

  MemoryPool pool(n);
  // The service always runs the Algorithm 3 common-coin core (the TOB's
  // embedded instances need the shared coin), with run_consensus's seed
  // stream and imperfect-coin ablation.
  const std::unique_ptr<ICommonCoin> coin =
      make_common_coin(cfg.seed, cfg.coin_epsilon);

  ServiceRunResult result;
  result.slot_logs.resize(static_cast<std::size_t>(n));
  BatchRegistry registry;
  std::vector<std::unique_ptr<TobProcess>> tobs;
  std::vector<std::unique_ptr<Batcher>> batchers;
  // Sim time each replica started each slot's consensus; -1 = never.
  std::vector<std::vector<SimTime>> slot_started(static_cast<std::size_t>(n));

  TrafficConfig tcfg;
  tcfg.clients = cfg.clients;
  tcfg.ops_per_client = cfg.ops_per_client;
  tcfg.load = cfg.load;
  TrafficEngine traffic(
      sim, tracker, tcfg, cfg.seed, n,
      [&batchers, &sim, trace](ProcId origin, std::uint64_t op_id) {
        if (trace != nullptr) {
          trace->record({.at = sim.now(), .kind = TraceKind::SvcOp,
                         .proc = origin, .args = {op_id}});
        }
        batchers[static_cast<std::size_t>(origin)]->add(op_id);
      });

  for (ProcId p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    TobProcess& tob = *tobs.emplace_back(std::make_unique<TobProcess>(
        p, cfg.layout, net, pool, *coin, cfg.max_rounds_per_bit));
    tob.set_slot_start_hook([&, p, i](int slot) {
      std::vector<SimTime>& started = slot_started[i];
      const auto s = static_cast<std::size_t>(slot);
      if (started.size() <= s) started.resize(s + 1, -1);
      started[s] = sim.now();
      if (trace != nullptr) {
        trace->record({.at = sim.now(), .kind = TraceKind::SvcSlot,
                       .proc = p, .args = {static_cast<std::uint64_t>(slot)}});
      }
    });
    // Every slot lands in replica p's log, NOOPs included, so the checker
    // can verify gap-free sequencing. An op completes for its client when
    // the origin replica delivers the batch containing it (every replica
    // delivers every batch; the client is attached to one). Delivery also
    // closes the attribution chain: the op's latency splits exactly into
    // batching wait (submit -> flush), slot queueing (flush -> the deciding
    // slot's consensus start at the completing replica), and
    // consensus/delivery (slot start -> now).
    tob.set_deliver_hook([&, p, i](int slot, std::uint64_t payload) {
      result.slot_logs[i].push_back(SlotRecord{slot, payload});
      if (payload == TobProcess::kNoop) return;
      const Batch& batch = registry.get(payload);
      if (trace != nullptr) {
        trace->record({.at = sim.now(), .kind = TraceKind::SvcDeliver,
                       .proc = p,
                       .args = {static_cast<std::uint64_t>(slot), batch.id,
                                batch.ops.size()}});
      }
      // The start is -1 when this replica never ran the slot (e.g. it
      // learned the decision from peers); the max() clamps the span to
      // start no earlier than the batch existed.
      const auto s = static_cast<std::size_t>(slot);
      const SimTime started =
          s < slot_started[i].size() ? slot_started[i][s] : -1;
      const SimTime begin = std::max(started, batch.flushed_at);
      for (const std::uint64_t op_id : batch.ops) {
        if (!traffic.on_op_completed(op_id, sim.now())) continue;
        const ClientOp& op = traffic.ops()[op_id - 1];
        const auto batch_wait =
            static_cast<std::uint64_t>(batch.flushed_at - op.submit_time);
        const auto seq_wait =
            static_cast<std::uint64_t>(begin - batch.flushed_at);
        const auto consensus = static_cast<std::uint64_t>(sim.now() - begin);
        result.batch_wait.add(batch_wait);
        result.batch_wait_hist.add(batch_wait);
        result.seq_wait.add(seq_wait);
        result.seq_wait_hist.add(seq_wait);
        result.consensus.add(consensus);
        result.consensus_hist.add(consensus);
      }
    });
    batchers.push_back(std::make_unique<Batcher>(
        sim, cfg.batch_max, cfg.batch_delay,
        [&, p, i](std::vector<std::uint64_t> ops) {
          // A deadline timer may fire after this replica crashed; a dead
          // replica must not originate proposals.
          if (tracker.is_crashed(p)) return;
          const std::uint64_t id = registry.mint(std::move(ops), sim.now());
          tobs[i]->submit(id);
          if (trace != nullptr) {
            trace->record({.at = sim.now(), .kind = TraceKind::SvcFlush,
                           .proc = p,
                           .args = {id, registry.get(id).ops.size()}});
          }
        }));
  }
  // Typed delivery: each same-tick run goes straight into the replicas'
  // total-order broadcast processes.
  struct TobReceiver final : SimNetwork::Receiver {
    TobReceiver(SimNetwork& n, std::vector<std::unique_ptr<TobProcess>>& t)
        : net(n), tobs(t) {}
    void receive(const TickItem* items, std::size_t count) override {
      net.for_each_live(items, count,
                        [this](ProcId to, ProcId from, const Message& m) {
                          tobs[static_cast<std::size_t>(to)]->on_message(
                              from, m);
                        });
    }
    SimNetwork& net;
    std::vector<std::unique_ptr<TobProcess>>& tobs;
  } receiver(net, tobs);
  net.set_receiver(receiver);

  world.schedule_crashes();
  // Scenario crash-recovery cycles: the replica's state survives (crash-
  // recovery with stable storage); messages sent into the down window are
  // lost, so a recovered replica may stall on in-flight slots — safety is
  // the guarantee, termination returns when enough traffic flows again.
  world.schedule_rejoins();

  traffic.start();

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
  for (const std::vector<SlotRecord>& log : result.slot_logs) {
    result.slots = std::max<std::uint64_t>(result.slots, log.size());
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
