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
      everyone_(static_cast<std::size_t>(n)),
      scratch_(static_cast<std::size_t>(n)),
      copies_(2 * static_cast<std::size_t>(n)) {
  HYCO_CHECK_MSG(n > 0, "network needs at least one process");
  std::iota(everyone_.begin(), everyone_.end(), 0);
  if (trace_ != nullptr) drops_.reserve(static_cast<std::size_t>(n));
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

void SimNetwork::plan(ProcId from, std::span<const ProcId> receivers,
                      const Message& m) {
  if (scenario_ == nullptr) {
    // Fault-free: one copy per receiver, every delay drawn in one call.
    const std::span<FanoutCopy> copies(copies_.data(), receivers.size());
    for (std::size_t i = 0; i < copies.size(); ++i) {
      copies[i].to = receivers[i];
    }
    delays_.draw(from, m, sim_.now(), sim_.rng(), copies);
    planned_ = copies.size();
    return;
  }
  for (const ProcId to : receivers) plan_under_scenario(from, to, m);
}

void SimNetwork::plan_under_scenario(ProcId from, ProcId to,
                                     const Message& m) {
  // Partition: a finite cut holds the message until it heals (reliable,
  // adversarially slow); a permanent cut drops it.
  const SimTime release = scenario_->release_time(from, to, sim_.now());
  if (release == kSimTimeNever) {
    ++stats_.dropped_partitioned;
    if (trace_ != nullptr) {
      drops_.push_back({planned_, to, DropCause::Partitioned});
    }
    return;
  }
  const SimTime hold = release - sim_.now();
  if (hold > 0) ++stats_.held_partitioned;
  const int copies = scenario_->draw_copies(m, sim_.rng());
  if (copies == 0) {
    ++stats_.dropped_lost;
    if (trace_ != nullptr) drops_.push_back({planned_, to, DropCause::Lost});
    return;
  }
  stats_.duplicated += static_cast<std::uint64_t>(copies - 1);
  const std::span<FanoutCopy> out(copies_.data() + planned_,
                                  static_cast<std::size_t>(copies));
  for (FanoutCopy& c : out) c.to = to;
  delays_.draw(from, m, sim_.now(), sim_.rng(), out);
  for (FanoutCopy& c : out) c.delay += hold;
  planned_ += out.size();
}

void SimNetwork::file_plan(ProcId from, const Message& m,
                           std::uint32_t payload) {
  const std::span<const FanoutCopy> copies(copies_.data(), planned_);
  planned_ = 0;
  // The scheduled event's seq is the message identity: the Send record
  // here and the Deliver/Drop record when it fires share mid = seq + 1,
  // giving the offline DAG its send->deliver edges. Copy i's seq is the
  // first copy's plus i, and seq assignment is unconditional in the queue,
  // so reading it never perturbs the run.
  const std::uint64_t first = sim_.schedule_fanout(payload, copies);
  stats_.unicasts_sent += copies.size();
  if (trace_ == nullptr) return;
  auto drop = drops_.begin();
  for (std::size_t i = 0; i <= copies.size(); ++i) {
    for (; drop != drops_.end() && drop->before == i; ++drop) {
      trace_message(TraceKind::Drop, from, drop->to, m, 0, drop->cause);
    }
    if (i < copies.size()) {
      trace_message(TraceKind::Send, from, copies[i].to, m, first + i + 1,
                    DropCause::None);
    }
  }
  drops_.clear();
}

void SimNetwork::FnReceiver::receive(const TickItem* items,
                                     std::size_t count) {
  net.for_each_live(items, count, fn);
}

void SimNetwork::deliver_event(ProcId from, ProcId to, const Message& m,
                               std::uint64_t seq) {
  const TickItem item{&m, seq, from, to, 0, TickItem::Kind::Deliver};
  deliver_batch(&item, 1);
}

void SimNetwork::deliver_batch(const TickItem* items, std::size_t count) {
  HYCO_CHECK_MSG(receiver_ != nullptr, "network receiver not set");
  receiver_->receive(items, count);
}

void SimNetwork::send(ProcId from, ProcId to, const Message& m) {
  HYCO_CHECK_MSG(from >= 0 && from < n_ && to >= 0 && to < n_,
                 "send with out-of-range process id");
  if (crashes_.is_crashed(from)) {
    ++stats_.dropped_sender_crashed;
    return;
  }
  const std::uint32_t payload = sim_.stage(from, m);
  plan(from, {&to, 1}, m);
  file_plan(from, m, payload);
  sim_.unpin(payload);
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
  // One payload serves every receiver; each scheduled copy only queues an
  // entry that refers to it, and one push files them all.
  const std::uint32_t payload = sim_.stage(from, m);

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
      plan(from, {scratch_.data(), k}, m);
      file_plan(from, m, payload);
      sim_.unpin(payload);
      crashes_.crash(from, sim_.now());
      if (trace_ != nullptr) {
        trace_->record({.at = sim_.now(), .kind = TraceKind::Crash,
                        .proc = from,
                        .args = {k, static_cast<std::uint64_t>(n_)}});
      }
      return;
    }
  }

  plan(from, everyone_, m);
  file_plan(from, m, payload);
  sim_.unpin(payload);
}

}  // namespace hyco
