// Point-to-point network abstraction (Section II-A of the paper) and its
// discrete-event implementation.
//
// Channels are reliable (no corruption, duplication, or loss) but
// asynchronous (arbitrary finite transit). broadcast(m) is the paper's
// macro-operation "for each j in {1..n} do send(m) to p_j" — it is NOT
// reliable: a sender crashing mid-broadcast reaches an arbitrary subset.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/types.h"
#include "net/delay_model.h"
#include "net/message.h"
#include "sim/crash.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace hyco {

class ScenarioEngine;

/// Transport counters, aggregated per run.
struct NetStats {
  std::uint64_t unicasts_sent = 0;      ///< individual send() deliveries scheduled
  std::uint64_t broadcasts = 0;         ///< broadcast() invocations
  std::uint64_t delivered = 0;          ///< messages handed to a live receiver
  std::uint64_t dropped_sender_crashed = 0;
  std::uint64_t dropped_receiver_crashed = 0;
  // Scenario faults (src/scenario/; all zero without a scenario):
  std::uint64_t dropped_partitioned = 0;  ///< blocked by a never-healing cut
  std::uint64_t dropped_lost = 0;         ///< per-link loss draws
  std::uint64_t duplicated = 0;           ///< extra copies scheduled
  std::uint64_t held_partitioned = 0;     ///< delayed by a healing cut
};

/// Abstract message-passing system shared by algorithms and substrates.
class INetwork {
 public:
  virtual ~INetwork() = default;

  /// Sends m from `from` to `to` over the reliable asynchronous channel.
  virtual void send(ProcId from, ProcId to, const Message& m) = 0;

  /// The paper's broadcast macro: sends m to every process (including the
  /// sender itself). Unreliable under sender crash.
  virtual void broadcast(ProcId from, const Message& m) = 0;

  /// Number of processes n.
  [[nodiscard]] virtual ProcId n() const = 0;

  /// Whether p is down. A process that crashes inside one of its own
  /// broadcasts takes no further step: it asks this before every step
  /// that other processes can see without a message (a proposal to a
  /// shared consensus object), since the network drops only its sends.
  [[nodiscard]] virtual bool crashed(ProcId p) const = 0;
};

/// Discrete-event network: delays from a DelayModel, crash semantics from a
/// CrashTracker + CrashPlan (for scripted mid-broadcast crashes).
///
/// Deliveries ride the simulator's typed Deliver events (the network
/// registers itself as the DeliverSink), so sending a message allocates
/// nothing. A send, a broadcast and a mid-broadcast crash's subset all take
/// one path: stage the message once in the simulator's payload slab, plan
/// the copies per receiver into a reusable buffer, and file the whole plan
/// with one Simulator::schedule_fanout() — each copy a 16-byte entry that
/// refers to the payload. Without a scenario every receiver gets one copy
/// and the plan's delays come from one DelayModel::draw() call; a scenario
/// plans each receiver in turn (release time, copy count, then each copy's
/// delay), which is the draw order of sending copy by copy. Trace records
/// follow the push, in plan order.
///
/// Copies come back one same-tick run at a time (deliver_batch), and the
/// whole run goes to the network's Receiver in one call. The receiver walks
/// it with for_each_live(), which it instantiates on its own concrete
/// processes: the per-item crash test, the delivered/dropped counts and the
/// traced path stay here, while the handler call inlines into the loop, so
/// a delivery pays no indirect call.
class SimNetwork final : public INetwork, private DeliverSink {
 public:
  /// Takes each same-tick run of deliveries; an implementation passes it to
  /// for_each_live() with a handler of its concrete processes.
  class Receiver {
   public:
    virtual void receive(const TickItem* items, std::size_t count) = 0;

   protected:
    ~Receiver() = default;  // never deleted through this interface
  };

  /// Called for each delivery to a live process (set_deliver).
  using DeliverFn = std::function<void(ProcId to, ProcId from, const Message&)>;

  /// All references must outlive the network. `plan` may be nullptr (no
  /// scripted broadcast crashes).
  SimNetwork(Simulator& sim, DelayModel& delays, CrashTracker& crashes,
             ProcId n, const CrashPlan* plan = nullptr,
             Trace* trace = nullptr);
  ~SimNetwork() override;

  /// Installs the receiver of every delivery; it must outlive the traffic.
  /// Must be called before any traffic flows (the runner wires processes in
  /// after constructing the network).
  void set_receiver(Receiver& r) { receiver_ = &r; }

  /// set_receiver() for a handler that is not typed: `fn` runs per live
  /// delivery, through the same loop (for_each_live) as a typed receiver.
  void set_deliver(DeliverFn fn) {
    fn_receiver_.fn = std::move(fn);
    receiver_ = &fn_receiver_;
  }

  /// The one delivery loop. Hands each delivery of a same-tick run whose
  /// receiver is live to `fn(to, from, m)`, in run order, and counts it;
  /// a copy to a crashed receiver is dropped and counted. The crash test
  /// stays per item: a mid-broadcast crash fired from a handler can down
  /// a receiver midway through the run. When tracing, every delivery and
  /// drop is recorded, and a delivery's message id (seq + 1) is the
  /// trace's causal context while `fn` runs, so the records its handler
  /// makes (Sends, phase starts, decides) chain back to it.
  template <class Fn>
  void for_each_live(const TickItem* items, std::size_t count, Fn&& fn) {
    Trace* const trace = trace_;
    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const TickItem& it = items[i];
      if (crashes_.is_crashed(it.to)) {
        if (trace != nullptr) {
          trace_message(TraceKind::Drop, it.to, it.from, *it.msg, it.seq + 1,
                        DropCause::ReceiverCrashed);
        }
        continue;
      }
      ++delivered;
      if (trace != nullptr) {
        trace_message(TraceKind::Deliver, it.to, it.from, *it.msg,
                      it.seq + 1, DropCause::None);
        trace->set_context(it.seq + 1);
      }
      fn(it.to, it.from, *it.msg);
      if (trace != nullptr) trace->clear_context();
    }
    stats_.delivered += delivered;
    stats_.dropped_receiver_crashed += count - delivered;
  }

  /// Installs the run's fault-injection engine (nullptr = none). When set,
  /// every receiver's copies consult the engine: partitioned messages are
  /// held until the cut heals (or dropped when it never does) and each send
  /// draws a copy count (loss/duplication). The engine must outlive the
  /// network. Delay shaping (reordering, coin attack) rides the engine's
  /// FaultyChannel, which the runner passes as this network's DelayModel.
  void set_scenario(ScenarioEngine* scenario) { scenario_ = scenario; }

  void send(ProcId from, ProcId to, const Message& m) override;
  void broadcast(ProcId from, const Message& m) override;
  [[nodiscard]] ProcId n() const override { return n_; }
  [[nodiscard]] bool crashed(ProcId p) const override {
    return crashes_.is_crashed(p);
  }

  [[nodiscard]] const NetStats& stats() const { return stats_; }

 private:
  /// A receiver the scenario dropped, and how many copies were planned
  /// before it (its place among the trace records).
  struct PlannedDrop {
    std::size_t before;
    ProcId to;
    DropCause cause;
  };

  /// Plans the copies of `m` from `from` to each of `receivers`, in order,
  /// into copies_: one copy each, drawn in one call, without a scenario;
  /// otherwise per receiver under the scenario (plan_under_scenario).
  void plan(ProcId from, std::span<const ProcId> receivers, const Message& m);
  /// One receiver under the scenario: its release time, its copy count,
  /// then each copy's delay (plus any partition hold). A dropped receiver
  /// is counted, and noted for the trace.
  void plan_under_scenario(ProcId from, ProcId to, const Message& m);
  /// Files the plan's copies of staged `payload` in one push and counts
  /// them; when tracing, then records a Send per copy (mid = seq + 1) and a
  /// Drop per dropped receiver, in plan order. Empties the plan.
  void file_plan(ProcId from, const Message& m, std::uint32_t payload);
  /// Records a Send/Deliver/Drop of `m` at `proc` (see sim/trace.h).
  void trace_message(TraceKind kind, ProcId proc, ProcId peer,
                     const Message& m, std::uint64_t mid, DropCause cause);

  /// set_deliver's receiver: for_each_live over the DeliverFn.
  struct FnReceiver final : Receiver {
    explicit FnReceiver(SimNetwork& n) : net(n) {}
    void receive(const TickItem* items, std::size_t count) override;
    SimNetwork& net;
    DeliverFn fn;
  };

  /// DeliverSink: one Deliver event, as a run of one (deliver_batch).
  void deliver_event(ProcId from, ProcId to, const Message& m,
                     std::uint64_t seq) override;

  /// DeliverSink: a same-tick run of deliveries, handed whole to the
  /// receiver.
  void deliver_batch(const TickItem* items, std::size_t count) override;

  Simulator& sim_;
  DelayModel& delays_;
  CrashTracker& crashes_;
  ProcId n_;
  const CrashPlan* plan_;
  Trace* trace_;
  ScenarioEngine* scenario_ = nullptr;
  Receiver* receiver_ = nullptr;
  FnReceiver fn_receiver_{*this};
  std::vector<std::int32_t> broadcast_counts_;
  std::vector<ProcId> everyone_;  ///< 0 … n-1: a broadcast's receivers
  std::vector<ProcId> scratch_;   ///< reusable mid-broadcast target buffer
  /// The fan-out being planned: its first planned_ entries. 2n entries
  /// hold any plan, since a receiver gets at most two copies.
  std::vector<FanoutCopy> copies_;
  std::size_t planned_ = 0;
  std::vector<PlannedDrop> drops_;  ///< the plan's drops, when tracing
  NetStats stats_;
};

}  // namespace hyco
