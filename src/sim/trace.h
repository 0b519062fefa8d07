// Optional execution tracing: a bounded ring of timestamped records that the
// runner can dump when a run misbehaves (safety violation, unexpected
// timeout). Tracing costs nothing when disabled.
//
// Causal identity: every record carries a message id (`mid`) and a parent
// event id (`parent`). A mid is derived from the event queue's insertion
// sequence of the scheduled Deliver event (seq + 1; 0 = no message), so the
// Send that schedules a delivery and the Deliver/Drop that consumes it share
// one id — a happens-before edge recoverable offline. The parent id is the
// mid of the delivery inside whose handler the record was made (the network
// opens a context window around each dispatch), so records caused by a
// delivery — the Sends the handler emits, phase starts, decides — chain back
// to it. Sequence numbers are assigned unconditionally by the event queue,
// tracing on or off, so recording them is strictly out of band: metrics-on
// and metrics-off runs stay byte-identical.
//
// Records are typed: each kind fills a fixed set of integer fields, so
// recording is a plain store and analysis reads fields. Text exists only
// when a person asks for it, through write_detail().
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <type_traits>
#include <vector>

#include "core/types.h"
#include "net/message.h"

namespace hyco {

/// Categories of traced happenings. The enum order is the binary trace
/// serialization — append new kinds at the end, never reorder.
enum class TraceKind : std::uint8_t {
  Send,
  Deliver,
  Drop,
  Crash,
  PhaseStart,
  Decide,
  Quorum,      ///< a phase exchange crossed its quorum threshold
  SvcOp,       ///< service: client op submitted to its origin replica
  SvcFlush,    ///< service: a batch flushed into the consensus pipeline
  SvcSlot,     ///< service: a consensus slot started
  SvcDeliver,  ///< service: a decided batch delivered at a replica
};

/// Highest valid TraceKind — the serialization bound for readers/writers.
inline constexpr TraceKind kTraceKindLast = TraceKind::SvcDeliver;

const char* to_cstring(TraceKind k);

/// Why the network dropped a message (Drop records only).
enum class DropCause : std::uint8_t {
  None,             ///< not a drop
  Partitioned,      ///< a permanent cut separates sender and receiver
  Lost,             ///< the lossy link ate it
  ReceiverCrashed,  ///< the receiver was down when it arrived
};

inline constexpr DropCause kDropCauseLast = DropCause::ReceiverCrashed;

/// One trace record. Every kind sets at/kind/proc; parent comes from the
/// trace's context. The other fields, per kind (unlisted ones keep their
/// defaults):
///
///   kind         proc      fields
///   send         sender    msg, peer = receiver, mid
///   deliver      receiver  msg, peer = sender, mid
///   drop         sender    msg, peer = receiver, cause = partitioned|lost
///   drop         receiver  msg, peer = sender, mid, cause = receiver crashed
///   crash        crasher   args = {deliveries made, n} (mid-broadcast)
///   phase        process   round, phase
///   quorum       process   round, phase
///   decide       process   round
///   svc_op       origin    args = {op}
///   svc_flush    replica   args = {batch, ops}
///   svc_slot     replica   args = {slot}
///   svc_deliver  replica   args = {slot, batch, ops}
struct TraceRecord {
  SimTime at = 0;
  TraceKind kind = TraceKind::Send;
  DropCause cause = DropCause::None;
  Phase phase = Phase::One;
  ProcId proc = -1;
  ProcId peer = -1;
  Round round = 0;
  std::uint64_t mid = 0;     ///< message id (event seq + 1); 0 = none
  std::uint64_t parent = 0;  ///< mid of the delivery this record ran under
  Message msg{};
  std::array<std::uint64_t, 3> args{};

  bool operator==(const TraceRecord&) const = default;
};

static_assert(std::is_trivially_copyable_v<TraceRecord>);

/// Renders a record's payload as the one-line text of the table above
/// (e.g. "PHASE(r=2,ph1,est=0) -> p5", "r=3 ph=2", "slot=4 batch=7 ops=12").
void write_detail(std::ostream& os, const TraceRecord& r);

/// Bounded in-memory trace. Disabled by default.
///
/// Storage is a preallocated ring of fixed-size records, so recording is a
/// copy into a slot — enabling tracing does not distort the timings it
/// measures with allocations.
class Trace {
 public:
  /// `capacity` bounds memory; older records are discarded first.
  explicit Trace(std::size_t capacity = 4096)
      : slots_(capacity == 0 ? 1 : capacity) {}

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Stores `r` with its parent set to the current context.
  void record(const TraceRecord& r);

  /// Causal context window: records made while a context is set inherit it
  /// as their parent id. The network sets the delivered message's mid around
  /// each handler dispatch; timer-originated records keep parent 0.
  void set_context(std::uint64_t mid) { context_ = mid; }
  void clear_context() { context_ = 0; }
  [[nodiscard]] std::uint64_t context() const { return context_; }

  /// Records currently held (<= capacity).
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Total records ever recorded; recorded() > size() means the ring
  /// wrapped and the dump is the trailing window.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  /// Visits held records oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) {
      fn(slots_[(head_ + i) % slots_.size()]);
    }
  }

  /// Human-readable dump, one record per line.
  void dump(std::ostream& os) const;

  void clear();

 private:
  std::vector<TraceRecord> slots_;  ///< fixed ring
  std::size_t head_ = 0;            ///< index of the oldest record
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t context_ = 0;  ///< mid of the delivery being dispatched
  bool enabled_ = false;
};

}  // namespace hyco
