// Wire messages of the consensus algorithms.
//
// The binary algorithms exchange two message kinds:
//  * PHASE(r, ph, est) — the payload of Algorithm 1's msg_exchange pattern.
//    Algorithm 3 has one phase per round and always uses ph = Phase::One.
//  * DECIDE(v) — decision gossip (Algorithm 2 lines 12/17, Algorithm 3
//    lines 9/13), which prevents deadlocks once deciders stop participating.
//
// The multivalued extension (src/core/multivalued.h) adds:
//  * VALUE(origin, value) — uniform-reliable-broadcast of a W-bit proposal;
//  * MULTIDECIDE(value)   — decision gossip for the multivalued layer;
// and stamps every message with an `instance` id so one network can carry
// many embedded binary consensus instances (one per decided bit).
//
// A fixed-width binary codec is provided so the same structs could travel
// over a real transport; the simulator passes them by value.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>

#include "core/types.h"

namespace hyco {

/// Kind tag of a wire message.
enum class MsgKind : std::uint8_t {
  Phase = 1,
  Decide = 2,
  Value = 3,        ///< multivalued layer: URB of a proposal
  MultiDecide = 4,  ///< multivalued layer: decision gossip
  RegQuery = 5,     ///< hybrid register: read/collect query
  RegStore = 6,     ///< hybrid register: store (ts, value)
  RegAck = 7,       ///< hybrid register: reply carrying cluster-latest state
  TobSubmit = 8,    ///< total-order broadcast: payload gossip
};

/// Sub-consensus instance id (bit index of the multivalued reduction); the
/// plain binary algorithms always use instance 0.
using InstanceId = std::int32_t;

/// A consensus protocol message.
struct Message {
  MsgKind kind = MsgKind::Phase;
  InstanceId instance = 0;       ///< embedded binary instance (bit index);
                                 ///< the register layer stores its op id here
  Round round = 0;               ///< r (PHASE); timestamp seq (register)
  Phase phase = Phase::One;      ///< ph (PHASE only)
  Estimate est = Estimate::Bot;  ///< est for PHASE; decided value for DECIDE
  ProcId origin = -1;            ///< original proposer (VALUE);
                                 ///< timestamp writer id (register)
  std::uint64_t value = 0;       ///< payload (VALUE / MULTIDECIDE / register)

  static Message phase_msg(Round r, Phase ph, Estimate e) {
    Message m;
    m.kind = MsgKind::Phase;
    m.round = r;
    m.phase = ph;
    m.est = e;
    return m;
  }
  static Message decide_msg(Estimate v) {
    Message m;
    m.kind = MsgKind::Decide;
    m.est = v;
    return m;
  }
  static Message value_msg(ProcId origin, std::uint64_t value) {
    Message m;
    m.kind = MsgKind::Value;
    m.origin = origin;
    m.value = value;
    return m;
  }
  static Message multi_decide_msg(std::uint64_t value) {
    Message m;
    m.kind = MsgKind::MultiDecide;
    m.value = value;
    return m;
  }

  bool operator==(const Message&) const = default;
};

/// Highest valid MsgKind — the serialization bound for decoders.
inline constexpr MsgKind kMsgKindLast = MsgKind::TobSubmit;

/// Human-readable form, e.g. "PHASE(r=2,ph1,est=0)" or "DECIDE(1)".
std::ostream& operator<<(std::ostream& os, const Message& m);

/// Number of bytes of the fixed-width encoding.
inline constexpr std::size_t kMessageWireSize = 23;

/// Encodes `m` into exactly kMessageWireSize bytes (little-endian fields).
std::array<std::uint8_t, kMessageWireSize> encode(const Message& m);

/// Decodes bytes produced by encode(); returns nullopt on malformed input
/// (bad kind/phase/estimate tags or wrong size).
std::optional<Message> decode(std::span<const std::uint8_t> bytes);

}  // namespace hyco
