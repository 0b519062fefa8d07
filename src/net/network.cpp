#include "net/network.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "scenario/engine.h"
#include "util/assert.h"

namespace hyco {

SimNetwork::SimNetwork(Simulator& sim, DelayModel& delays,
                       CrashTracker& crashes, ProcId n, const CrashPlan* plan,
                       Trace* trace)
    : sim_(sim),
      delays_(delays),
      crashes_(crashes),
      n_(n),
      plan_(plan),
      trace_(trace),
      broadcast_counts_(static_cast<std::size_t>(n), 0),
      scratch_(static_cast<std::size_t>(n)) {
  HYCO_CHECK_MSG(n > 0, "network needs at least one process");
  if (plan_ != nullptr) {
    HYCO_CHECK_MSG(plan_->specs.size() == static_cast<std::size_t>(n),
                   "crash plan size mismatch");
  }
  sim_.set_deliver_sink(this);
}

SimNetwork::~SimNetwork() { sim_.clear_deliver_sink(this); }

void SimNetwork::trace_message(TraceKind kind, ProcId proc, ProcId peer,
                               const Message& m, std::uint64_t mid,
                               DropCause cause) {
  trace_->record({.at = sim_.now(), .kind = kind, .cause = cause,
                  .proc = proc, .peer = peer, .mid = mid, .msg = m});
}

void SimNetwork::schedule_delivery(ProcId from, ProcId to, const Message& m) {
  SimTime hold = 0;
  int copies = 1;
  if (scenario_ != nullptr) {
    // Partition: a finite cut holds the message until it heals (reliable,
    // adversarially slow); a permanent cut drops it.
    const SimTime release = scenario_->release_time(from, to, sim_.now());
    if (release == kSimTimeNever) {
      ++stats_.dropped_partitioned;
      if (trace_ != nullptr) {
        trace_message(TraceKind::Drop, from, to, m, 0, DropCause::Partitioned);
      }
      return;
    }
    hold = release - sim_.now();
    if (hold > 0) ++stats_.held_partitioned;
    copies = scenario_->draw_copies(m, sim_.rng());
    if (copies == 0) {
      ++stats_.dropped_lost;
      if (trace_ != nullptr) {
        trace_message(TraceKind::Drop, from, to, m, 0, DropCause::Lost);
      }
      return;
    }
    stats_.duplicated += static_cast<std::uint64_t>(copies - 1);
  }
  for (int c = 0; c < copies; ++c) {
    const SimTime d = delays_.delay(from, to, m, sim_.now(), sim_.rng());
    ++stats_.unicasts_sent;
    // The scheduled event's seq is the message identity: the Send record
    // here and the Deliver/Drop record when it fires share mid = seq + 1,
    // giving the offline DAG its send->deliver edges. seq assignment is
    // unconditional in the queue, so reading it never perturbs the run.
    const std::uint64_t seq = sim_.schedule_deliver(hold + d, from, to, m);
    if (trace_ != nullptr) {
      trace_message(TraceKind::Send, from, to, m, seq + 1, DropCause::None);
    }
  }
}

void SimNetwork::deliver_event(ProcId from, ProcId to, const Message& m,
                               std::uint64_t seq) {
  if (crashes_.is_crashed(to)) {
    ++stats_.dropped_receiver_crashed;
    if (trace_ != nullptr) {
      trace_message(TraceKind::Drop, to, from, m, seq + 1,
                    DropCause::ReceiverCrashed);
    }
    return;
  }
  ++stats_.delivered;
  if (trace_ != nullptr) {
    trace_message(TraceKind::Deliver, to, from, m, seq + 1, DropCause::None);
    // Causal context window: everything the handler records — the Sends it
    // emits, phase starts, decides — is a consequence of this delivery.
    trace_->set_context(seq + 1);
  }
  HYCO_CHECK_MSG(static_cast<bool>(deliver_), "network deliver fn not set");
  deliver_(to, from, m);
  if (trace_ != nullptr) trace_->clear_context();
}

void SimNetwork::deliver_batch(const TickItem* items, std::size_t count) {
  if (trace_ != nullptr) {
    // Tracing wants a record per message; the cold per-event path already
    // does exactly that.
    DeliverSink::deliver_batch(items, count);
    return;
  }
  HYCO_CHECK_MSG(static_cast<bool>(deliver_), "network deliver fn not set");
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const TickItem& it = items[i];
    if (crashes_.is_crashed(it.to)) {
      ++dropped;
    } else {
      ++delivered;
      deliver_(it.to, it.from, *it.msg);
    }
  }
  stats_.delivered += delivered;
  stats_.dropped_receiver_crashed += dropped;
}

void SimNetwork::send(ProcId from, ProcId to, const Message& m) {
  HYCO_CHECK_MSG(from >= 0 && from < n_ && to >= 0 && to < n_,
                 "send with out-of-range process id");
  if (crashes_.is_crashed(from)) {
    ++stats_.dropped_sender_crashed;
    return;
  }
  schedule_delivery(from, to, m);
}

void SimNetwork::broadcast(ProcId from, const Message& m) {
  HYCO_CHECK_MSG(from >= 0 && from < n_, "broadcast from unknown process");
  if (crashes_.is_crashed(from)) {
    ++stats_.dropped_sender_crashed;
    return;
  }
  ++stats_.broadcasts;
  const auto idx = static_cast<std::size_t>(from);
  const std::int32_t my_broadcast = broadcast_counts_[idx]++;

  // Scripted mid-broadcast crash: deliver to a random subset, then halt.
  if (plan_ != nullptr) {
    const CrashSpec& spec = plan_->specs[idx];
    if (spec.kind == CrashSpec::Kind::OnBroadcast &&
        spec.broadcast_index == my_broadcast) {
      // Only the k delivery targets are drawn (k RNG draws, not n-1; see
      // Rng::partial_shuffle for the draw-order contract), over the
      // reusable scratch buffer — no allocation on the crash path.
      const auto k = static_cast<std::size_t>(
          std::clamp<std::int32_t>(spec.deliver_count, 0, n_));
      std::iota(scratch_.begin(), scratch_.end(), 0);
      sim_.rng().partial_shuffle(scratch_, k);
      for (std::size_t i = 0; i < k; ++i) {
        schedule_delivery(from, scratch_[i], m);
      }
      crashes_.crash(from, sim_.now());
      if (trace_ != nullptr) {
        trace_->record({.at = sim_.now(), .kind = TraceKind::Crash,
                        .proc = from,
                        .args = {k, static_cast<std::uint64_t>(n_)}});
      }
      return;
    }
  }

  for (ProcId to = 0; to < n_; ++to) {
    schedule_delivery(from, to, m);
  }
}

}  // namespace hyco
