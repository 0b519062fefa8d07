// Layer benches of the traced pass: each one times a single public
// function of one layer on inputs shaped like the workload (its largest n,
// its cluster layout, its coin, grid-faults' scenario), so a per-layer
// regression shows as a unit cost beside the in-run span that pays it.
// Each bench runs once untimed, then `reps` times; the reported value is
// the median over reps of time per operation. A bench also checks its own
// output and appends an error when the layer misbehaved.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "coin/coin.h"
#include "core/cluster_layout.h"
#include "core/multivalued_runner.h"
#include "exp/checkpoint.h"
#include "exp/report.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "scenario/engine.h"
#include "service/batcher.h"
#include "service/traffic.h"
#include "shm/cluster_memory.h"
#include "sim/crash.h"
#include "sim/simulator.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace hyco_bench {

/// What the layer benches need to know about the workload.
struct LayerShape {
  hyco::ClusterLayout layout;  ///< the workload's largest layout
  hyco::Algorithm alg;
  std::uint64_t seed;
  const std::vector<hyco::CellResult>* results;  ///< a finished repetition
  hyco::ReportOptions report;
};

/// Counts deliveries and does nothing else: the queue's cost alone.
class NopSink final : public hyco::DeliverSink {
 public:
  void deliver_event(hyco::ProcId, hyco::ProcId, const hyco::Message&,
                     std::uint64_t) override {
    ++delivered;
  }
  std::uint64_t delivered = 0;
};

/// About 2^20 operations per timed body, whatever n is.
inline std::uint64_t bursts_for(std::uint64_t per_burst) {
  return std::max<std::uint64_t>(1, (std::uint64_t{1} << 20) / per_burst);
}

inline std::vector<Metric> run_layer_benches(const LayerShape& shape,
                                             SpanLog& log, int reps,
                                             std::vector<std::string>& errors) {
  using namespace hyco;
  // Median over reps of ns per op; `body` does the timed work and returns
  // its operation count.
  const auto ns_per_op = [&](const char* span,
                             const std::function<std::uint64_t()>& body) {
    (void)body();
    std::vector<double> per_op;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      const std::uint64_t ops = body();
      const auto t1 = Clock::now();
      log.add(span, t0, t1, SpanLog::kNoParent, SpanLog::kLayerLane);
      per_op.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                       static_cast<double>(std::max<std::uint64_t>(ops, 1)));
    }
    return median(per_op);
  };
  const auto fail = [&](const char* what) { errors.emplace_back(what); };
  std::vector<Metric> out;
  const ProcId n = shape.layout.n();
  const auto nn = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  const Message phase = Message::phase_msg(1, Phase::One, Estimate::One);

  // Simulator::schedule_deliver + run at n^2 depth (one all-to-all wave).
  out.push_back({"sim.event_ns", ns_per_op("layer.sim.event", [&] {
                   NopSink sink;
                   Simulator sim(shape.seed);
                   sim.set_deliver_sink(&sink);
                   sim.reserve_all_to_all(n);
                   Rng rng(shape.seed);
                   const std::uint64_t bursts = bursts_for(nn);
                   for (std::uint64_t b = 0; b < bursts; ++b) {
                     for (ProcId from = 0; from < n; ++from) {
                       for (ProcId to = 0; to < n; ++to) {
                         sim.schedule_deliver(rng.uniform(50, 150), from, to,
                                              phase);
                       }
                     }
                     sim.run();
                   }
                   if (sink.delivered != bursts * nn) {
                     fail("sim.event: lost deliveries");
                   }
                   return sink.delivered;
                 }),
                 "ns"});

  // SimNetwork::broadcast from every process, then drain: send path (delay
  // draw, scheduling) plus batched delivery, per delivered message.
  out.push_back({"net.deliver_ns", ns_per_op("layer.net.deliver", [&] {
                   Simulator sim(shape.seed);
                   sim.reserve_all_to_all(n);
                   UniformDelay delay(50, 150);
                   CrashTracker tracker(static_cast<std::size_t>(n));
                   SimNetwork net(sim, delay, tracker, n);
                   std::uint64_t delivered = 0;
                   net.set_deliver([&](ProcId, ProcId, const Message&) {
                     ++delivered;
                   });
                   const std::uint64_t cycles = bursts_for(nn);
                   for (std::uint64_t c = 0; c < cycles; ++c) {
                     for (ProcId p = 0; p < n; ++p) net.broadcast(p, phase);
                     sim.run();
                   }
                   if (delivered != cycles * nn) {
                     fail("net.deliver: lost deliveries");
                   }
                   return delivered;
                 }),
                 "ns"});

  // ClusterMemory::cons(r).propose by every member of cluster 0 over four
  // rounds of a fresh memory: object creation on first touch included, as
  // in a run (which decides in ~3 rounds).
  out.push_back({"shm.propose_ns", ns_per_op("layer.shm.propose", [&] {
                   const auto& members = shape.layout.members(0);
                   const std::uint64_t per_mem = 4 * members.size();
                   const std::uint64_t mems = bursts_for(per_mem);
                   std::uint64_t agreed = 0;
                   for (std::uint64_t k = 0; k < mems; ++k) {
                     ClusterMemory mem(0, n);
                     for (Round r = 1; r <= 4; ++r) {
                       const Estimate first = estimate_from_bit(
                           static_cast<int>((k + static_cast<std::uint64_t>(r)) & 1));
                       for (const ProcId p : members) {
                         const Estimate v = p == members.front()
                                                ? first
                                                : estimate_from_bit(p & 1);
                         agreed += mem.cons(r).propose(p, v) == first ? 1 : 0;
                       }
                     }
                   }
                   if (agreed != mems * per_mem) {
                     fail("shm.propose: a consensus object disagreed");
                   }
                   return mems * per_mem;
                 }),
                 "ns"});

  // One coin consultation of the workload's coin, through the interface the
  // processes hold (common coin) or the process-owned local coin.
  const bool local = shape.alg == Algorithm::HybridLocalCoin;
  out.push_back({"coin.flip_ns", ns_per_op("layer.coin.flip", [&] {
                   constexpr std::uint64_t kFlips = std::uint64_t{1} << 22;
                   std::uint64_t ones = 0;
                   if (local) {
                     LocalCoin coin(shape.seed);
                     for (std::uint64_t i = 0; i < kFlips; ++i) {
                       ones += static_cast<std::uint64_t>(coin.flip_counted());
                     }
                   } else {
                     const auto coin = std::make_unique<CommonCoin>(shape.seed);
                     // Read back through a volatile so the call stays a
                     // virtual dispatch, as it is from a process.
                     ICommonCoin* volatile hidden = coin.get();
                     ICommonCoin* c = hidden;
                     for (std::uint64_t i = 0; i < kFlips; ++i) {
                       ones += static_cast<std::uint64_t>(
                           c->bit(static_cast<Round>(i)));
                     }
                   }
                   if (ones == 0 || ones == kFlips) {
                     fail("coin.flip: the coin is constant");
                   }
                   return kFlips;
                 }),
                 "ns"});

  // One send through grid-faults' scenario engine on this layout: faulty
  // channel delay, loss/dup draw, partition release time; send times sweep
  // across the cut's window.
  out.push_back(
      {"scenario.send_ns", ns_per_op("layer.scenario.send", [&] {
         ScenarioEngine engine(fault_scenario(), shape.layout,
                               make_delay_model(DelayConfig::uniform(50, 150)));
         Rng rng(shape.seed);
         constexpr std::uint64_t kSends = std::uint64_t{1} << 20;
         std::uint64_t copies = 0;
         SimTime horizon = 0;
         for (std::uint64_t i = 0; i < kSends; ++i) {
           const auto from = static_cast<ProcId>(i % static_cast<std::uint64_t>(n));
           const auto to = static_cast<ProcId>(
               (i / static_cast<std::uint64_t>(n)) % static_cast<std::uint64_t>(n));
           const auto now = static_cast<SimTime>((i * 7) % 4000);
           const SimTime d = engine.channel().delay(from, to, phase, now, rng);
           copies += static_cast<std::uint64_t>(engine.draw_copies(phase, rng));
           horizon = std::max(horizon, engine.release_time(from, to, now) + d);
         }
         if (copies == 0 || horizon < 2000) {
           fail("scenario.send: the scenario did not engage");
         }
         return kSends;
       }),
       "ns"});

  // run_multivalued at n=8, m=2 over 11-bit values (svc-batched's slot
  // width: bit_width(2000 ops)), per decided bit.
  const double mv_ns = ns_per_op("layer.core.mv", [&] {
    constexpr int kWidth = 11;
    constexpr std::uint64_t kRuns = 8;
    for (std::uint64_t k = 0; k < kRuns; ++k) {
      MultiRunConfig cfg(ClusterLayout::even(8, 2));
      cfg.width = kWidth;
      cfg.seed = mix64(shape.seed, k);
      if (!run_multivalued(cfg).success()) {
        fail("core.mv: a multivalued run failed");
      }
    }
    return kRuns * kWidth;
  });
  out.push_back({"core.mv_bit_us", mv_ns / 1e3, "us"});

  // Batcher::add under svc-batched's policy (64 ops or 50 us), deadline
  // timers drained.
  out.push_back(
      {"service.batcher_add_ns", ns_per_op("layer.service.batcher", [&] {
         constexpr std::uint64_t kOps = 64 * 16'384;
         Simulator sim(shape.seed);
         std::uint64_t flushed = 0;
         Batcher batcher(sim, 64, 50'000,
                         [&](std::vector<std::uint64_t> ops) {
                           flushed += ops.size();
                         });
         for (std::uint64_t id = 1; id <= kOps; ++id) batcher.add(id);
         sim.run();
         if (flushed != kOps) fail("service.batcher: ops not flushed");
         return kOps;
       }),
       "ns"});

  // TrafficEngine: 20k closed-loop clients x 4 ops, each op completed as
  // soon as it is submitted — the engine's own cost per op.
  out.push_back(
      {"service.traffic_op_ns", ns_per_op("layer.service.traffic", [&] {
         TrafficConfig tcfg;
         tcfg.clients = 20'000;
         tcfg.ops_per_client = 4;
         Simulator sim(shape.seed);
         CrashTracker tracker(static_cast<std::size_t>(n));
         std::vector<std::uint64_t> pending;
         TrafficEngine traffic(sim, tracker, tcfg, shape.seed, n,
                               [&](ProcId, std::uint64_t op) {
                                 pending.push_back(op);
                               });
         traffic.start();
         for (;;) {
           sim.run();
           if (pending.empty()) break;
           for (const std::uint64_t op : pending) {
             (void)traffic.on_op_completed(op, sim.now());
           }
           pending.clear();
         }
         const std::uint64_t ops = tcfg.clients * tcfg.ops_per_client;
         if (traffic.completed() != ops) {
           fail("service.traffic: ops left incomplete");
         }
         return ops;
       }),
       "ns"});

  // Checkpoint encode/decode of each cell's accumulator, with a round trip:
  // the decoded accumulator must encode to the same bytes.
  const auto& results = *shape.results;
  std::vector<std::string> encoded(results.size());
  const double enc_ns = ns_per_op("layer.exp.ckpt_encode", [&] {
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::ostringstream os;
      write_accumulator_state(os, results[i].acc);
      encoded[i] = os.str();
    }
    return results.size();
  });
  std::vector<CellAccumulator> decoded(results.size());
  const double dec_ns = ns_per_op("layer.exp.ckpt_decode", [&] {
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::istringstream is(encoded[i]);
      decoded[i] = CellAccumulator();
      if (!read_accumulator_state(is, decoded[i])) {
        fail("exp.ckpt: an encoded accumulator did not decode");
      }
    }
    return results.size();
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::ostringstream again;
    write_accumulator_state(again, decoded[i]);
    if (again.str() != encoded[i]) {
      fail("exp.ckpt: the round trip changed an accumulator");
    }
  }
  out.push_back({"exp.ckpt_encode_us", enc_ns / 1e3, "us"});
  out.push_back({"exp.ckpt_decode_us", dec_ns / 1e3, "us"});

  // CSV + JSON report of the repetition's cells.
  std::size_t report_bytes = 0;
  const double report_ns = ns_per_op("layer.exp.report", [&] {
    std::ostringstream csv;
    std::ostringstream json;
    write_cell_csv(csv, results, shape.report);
    write_cell_json(json, "hyco_bench", results, shape.report);
    report_bytes = csv.str().size() + json.str().size();
    return 1;
  });
  if (report_bytes == 0) fail("exp.report: empty report");
  out.push_back({"exp.report_ms", report_ns / 1e6, "ms"});

  return out;
}

}  // namespace hyco_bench
