// Deterministic discrete-event simulator.
//
// This is the executable stand-in for the paper's pencil-and-paper
// asynchronous model: processes take atomic steps, message transit times are
// arbitrary-but-finite (drawn from a pluggable delay model), and a crashed
// process executes no further steps. Given a seed, a run is bit-for-bit
// reproducible.
//
// Message deliveries — the O(n²)-per-round hot path — travel as typed
// Deliver events dispatched straight to the registered DeliverSink (the
// network), so no closure is allocated per message. A broadcast pays once,
// not once per receiver, on both ends: it stages its message once and
// files all of its copies in one schedule_fanout() call, and a whole tick
// is the unit of work on the way out — every event sharing the minimum
// virtual time leaves the queue as one span (EventQueue::pop_tick) and
// contiguous runs of Deliver events go to the sink as a single
// deliver_batch() call, so a burst of n² messages pays one virtual
// dispatch into the network instead of n². A run stops
// only between ticks, or when the event budget runs out inside one; the
// rest of that tick then stays queued. schedule_in/schedule_at keep their
// std::function signature for the sparse timer/bookkeeping call sites;
// those closures are pool-backed inside the EventQueue.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>

#include "core/types.h"
#include "net/message.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace hyco {

/// Why Simulator::run returned.
enum class StopReason {
  Quiescent,   ///< event queue drained — nothing can ever happen again
  EventLimit,  ///< max_events executed
};

/// Receiver of typed Deliver events (implemented by the network). The
/// simulator calls deliver_batch() with same-tick runs of Deliver events;
/// the default implementation forwards to deliver_event() one at a time.
class DeliverSink {
 public:
  /// `seq` is the delivery event's insertion sequence — the stable identity
  /// assigned at schedule time (the trace layer derives message ids from it;
  /// non-tracing sinks may ignore it).
  virtual void deliver_event(ProcId from, ProcId to, const Message& m,
                             std::uint64_t seq) = 0;

  /// Delivers a contiguous same-tick run in span order. Overrides must
  /// preserve per-event semantics exactly — receiver crash state may change
  /// mid-run.
  virtual void deliver_batch(const TickItem* items, std::size_t count);

 protected:
  ~DeliverSink() = default;  // never deleted through this interface
};

/// Single-threaded discrete-event engine with a virtual clock and a seeded
/// random number generator.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Pre-sizes the payload slab / callback pool (see EventQueue::reserve).
  void reserve(std::size_t payloads, std::size_t callbacks = 0) {
    queue_.reserve(payloads, callbacks);
  }

  /// Pre-sizing for an n-process all-to-all protocol. Its ~n² deliveries
  /// in flight share one staged payload per broadcast, and a fault-free
  /// consensus run holds at most ~3.6n payloads at once (n = 8 to 128), so
  /// 4n cover it (sends and held copies grow the free list past that);
  /// plus up to 2n start/crash timers. Every runner calls this right after
  /// construction so the hot path seldom reallocates mid-run.
  void reserve_all_to_all(ProcId n) {
    const auto nn = static_cast<std::size_t>(n);
    reserve(4 * nn, 2 * nn);
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  void schedule_in(SimTime delay, std::function<void()> fn);

  /// Schedules `fn` at absolute virtual time `at` (>= now()).
  void schedule_at(SimTime at, std::function<void()> fn);

  /// Stages message `m` from `from` once for a fan-out of deliveries and
  /// returns its pinned payload (see EventQueue::stage). Pair every stage()
  /// with one unpin() once the fan-out is scheduled.
  std::uint32_t stage(ProcId from, const Message& m) {
    return queue_.stage(from, m);
  }

  /// Schedules the deliveries of staged `payload` in one push: copy i goes
  /// to copies[i].to, copies[i].delay (>= 0) nanoseconds from now, and is
  /// dispatched to the deliver sink when it fires. Requires a sink by
  /// dispatch time. A negative delay is a contract violation that
  /// schedules nothing (see EventQueue::push_fanout). Returns the first
  /// copy's insertion sequence; copy i's is that plus i (assigned
  /// unconditionally, so observing them is free of side effects on the
  /// run).
  std::uint64_t schedule_fanout(std::uint32_t payload,
                                std::span<const FanoutCopy> copies) {
    return queue_.push_fanout(now_, payload, copies);
  }

  /// Drops stage()'s pin on `payload`.
  void unpin(std::uint32_t payload) { queue_.unpin(payload); }

  /// One delivery on a payload of its own: stage, a fan-out of one and
  /// unpin in one call. Returns the event's insertion sequence.
  std::uint64_t schedule_deliver(SimTime delay, ProcId from, ProcId to,
                                 const Message& m);

  /// Registers the deliver sink (one per simulator; the network installs
  /// itself). Re-registering the same sink is a no-op; a different live sink
  /// is a contract violation.
  void set_deliver_sink(DeliverSink* sink);

  /// Deregisters `sink` if it is the current one (called from the network's
  /// destructor so a dangling simulator never dispatches into freed memory).
  void clear_deliver_sink(const DeliverSink* sink);

  /// Runs until quiescence or until max_events events have executed in
  /// total (counted across calls).
  StopReason run(
      std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  /// Executes one virtual-time tick (all events at the minimum time, cut
  /// short only by max_events) and returns the stop reason if the run is
  /// over, std::nullopt if there is more to do. run() is exactly this in a
  /// loop; ConsensusRun::tick() calls it so a caller can time the event
  /// loop apart from a run's set-up and harvest.
  std::optional<StopReason> run_tick(
      std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  [[nodiscard]] bool pending() const { return !queue_.empty(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Peak number of concurrently pending events (perf instrumentation).
  [[nodiscard]] std::size_t peak_queue_depth() const {
    return queue_.peak_size();
  }

  /// The simulation-wide RNG (delay draws, crash subsets, ...). Forked
  /// streams should be used for logically independent randomness.
  Rng& rng() { return rng_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  DeliverSink* sink_ = nullptr;
  Rng rng_;
};

}  // namespace hyco
