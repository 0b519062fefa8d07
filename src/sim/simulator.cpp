#include "sim/simulator.h"

#include <utility>

#include "util/assert.h"

namespace hyco {

Simulator::Simulator(std::uint64_t seed) : rng_(mix64(seed, 0x51C0DE)) {}

void Simulator::schedule_in(SimTime delay, std::function<void()> fn) {
  HYCO_CHECK_MSG(delay >= 0, "negative delay " << delay);
  queue_.push(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(SimTime at, std::function<void()> fn) {
  HYCO_CHECK_MSG(at >= now_, "schedule_at(" << at << ") is in the past (now "
                                            << now_ << ")");
  queue_.push(at, std::move(fn));
}

std::uint64_t Simulator::schedule_deliver(SimTime delay, ProcId from,
                                          ProcId to, const Message& m) {
  HYCO_CHECK_MSG(delay >= 0, "negative delay " << delay);
  return queue_.push_deliver(now_ + delay, from, to, m);
}

void Simulator::set_deliver_sink(DeliverSink* sink) {
  HYCO_CHECK_MSG(sink != nullptr, "deliver sink must not be null");
  HYCO_CHECK_MSG(sink_ == nullptr || sink_ == sink,
                 "a different deliver sink is already registered");
  sink_ = sink;
}

void Simulator::clear_deliver_sink(const DeliverSink* sink) {
  if (sink_ == sink) sink_ = nullptr;
}

void DeliverSink::deliver_batch(const TickItem* items, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    deliver_event(items[i].from, items[i].to, *items[i].msg, items[i].seq);
  }
}

std::optional<StopReason> Simulator::run_tick(std::uint64_t max_events) {
  if (queue_.empty()) return StopReason::Quiescent;
  if (executed_ >= max_events) return StopReason::EventLimit;
  const TickSpan span = queue_.pop_tick(max_events - executed_);
  now_ = span.at;
  std::size_t done = 0;
  while (done < span.count) {
    const TickItem& it = span.items[done];
    if (it.kind == TickItem::Kind::Deliver) {
      // Maximal same-tick run of deliveries: one sink call for the whole
      // burst.
      std::size_t j = done + 1;
      while (j < span.count &&
             span.items[j].kind == TickItem::Kind::Deliver) {
        ++j;
      }
      HYCO_CHECK_MSG(sink_ != nullptr,
                     "Deliver event fired with no deliver sink registered");
      sink_->deliver_batch(span.items + done, j - done);
      executed_ += j - done;
      done = j;
    } else {
      // Move the closure out before running it: the callback may schedule
      // new callbacks, which can recycle or grow the pool slot it came from.
      const std::function<void()> fn = queue_.take_callback(it.slot);
      ++executed_;
      ++done;
      fn();
    }
  }
  return std::nullopt;
}

StopReason Simulator::run(std::uint64_t max_events) {
  for (;;) {
    const std::optional<StopReason> stop = run_tick(max_events);
    if (stop) return *stop;
  }
}

}  // namespace hyco
