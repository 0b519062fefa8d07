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
// network), so no closure is allocated per message. A whole tick is the
// unit of work: every event sharing the minimum virtual time leaves the
// queue as one span (EventQueue::pop_tick) and contiguous runs of Deliver
// events go to the sink as a single deliver_batch() call, so a broadcast
// burst of n² messages pays one virtual dispatch instead of n². A run stops
// only between ticks, or when the event budget runs out inside one; the
// rest of that tick then stays queued. schedule_in/schedule_at keep their
// std::function signature for the sparse timer/bookkeeping call sites;
// those closures are pool-backed inside the EventQueue.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>

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

  /// Pre-sizes the event heap / callback pool (see EventQueue::reserve).
  void reserve(std::size_t events, std::size_t callbacks = 0) {
    queue_.reserve(events, callbacks);
  }

  /// Pre-sizing for an n-process all-to-all protocol: one phase keeps ~n²
  /// deliveries in flight, plus up to 2n start/crash timers. Every runner
  /// calls this right after construction so the hot path never reallocates
  /// mid-run.
  void reserve_all_to_all(ProcId n) {
    const auto nn = static_cast<std::size_t>(n);
    reserve(nn * nn + 2 * nn, 2 * nn);
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  void schedule_in(SimTime delay, std::function<void()> fn);

  /// Schedules `fn` at absolute virtual time `at` (>= now()).
  void schedule_at(SimTime at, std::function<void()> fn);

  /// Schedules a message delivery `delay` nanoseconds from now. The message
  /// is stored inline in the event node — no allocation — and dispatched to
  /// the deliver sink when it fires. Requires a sink by dispatch time.
  /// Returns the event's insertion sequence (assigned unconditionally, so
  /// observing it is free of side effects on the run).
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
  [[nodiscard]] std::uint64_t events_scheduled() const { return queue_.pushed(); }

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
