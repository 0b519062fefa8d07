#include "net/message.h"

namespace hyco {

std::ostream& operator<<(std::ostream& os, const Message& m) {
  switch (m.kind) {
    case MsgKind::Phase:
      os << "PHASE(r=" << m.round << ',' << m.phase << ",est=" << m.est;
      if (m.instance != 0) os << ",inst=" << m.instance;
      os << ')';
      break;
    case MsgKind::Decide:
      os << "DECIDE(" << m.est;
      if (m.instance != 0) os << ",inst=" << m.instance;
      os << ')';
      break;
    case MsgKind::Value:
      os << "VALUE(origin=p" << m.origin << ",v=" << m.value << ')';
      break;
    case MsgKind::MultiDecide:
      os << "MULTIDECIDE(v=" << m.value << ')';
      break;
    case MsgKind::RegQuery:
      os << "REGQUERY(op=" << m.instance << ')';
      break;
    case MsgKind::RegStore:
      os << "REGSTORE(op=" << m.instance << ",ts=" << m.round << '.'
         << m.origin << ",v=" << m.value << ')';
      break;
    case MsgKind::RegAck:
      os << "REGACK(op=" << m.instance << ",ts=" << m.round << '.'
         << m.origin << ",v=" << m.value << ')';
      break;
    case MsgKind::TobSubmit:
      os << "TOBSUBMIT(origin=p" << m.origin << ",payload=" << m.value << ')';
      break;
  }
  return os;
}

namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xFF);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

}  // namespace

std::array<std::uint8_t, kMessageWireSize> encode(const Message& m) {
  std::array<std::uint8_t, kMessageWireSize> out{};
  out[0] = static_cast<std::uint8_t>(m.kind);
  put_u32(&out[1], static_cast<std::uint32_t>(m.instance));
  put_u32(&out[5], static_cast<std::uint32_t>(m.round));
  out[9] = static_cast<std::uint8_t>(m.phase);
  out[10] = static_cast<std::uint8_t>(m.est);
  put_u32(&out[11], static_cast<std::uint32_t>(m.origin));
  for (int i = 0; i < 8; ++i) {
    out[15 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((m.value >> (8 * i)) & 0xFF);
  }
  return out;
}

std::optional<Message> decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kMessageWireSize) return std::nullopt;
  const auto kind = bytes[0];
  if (kind < 1 || kind > static_cast<std::uint8_t>(kMsgKindLast)) {
    return std::nullopt;
  }
  const auto phase = bytes[9];
  if (phase != 1 && phase != 2) return std::nullopt;
  const auto est = bytes[10];
  if (est > 2) return std::nullopt;
  Message m;
  m.kind = static_cast<MsgKind>(kind);
  m.instance = static_cast<InstanceId>(get_u32(&bytes[1]));
  m.round = static_cast<Round>(get_u32(&bytes[5]));
  m.phase = static_cast<Phase>(phase);
  m.est = static_cast<Estimate>(est);
  m.origin = static_cast<ProcId>(get_u32(&bytes[11]));
  m.value = 0;
  for (int i = 0; i < 8; ++i) {
    m.value |= static_cast<std::uint64_t>(bytes[15 + static_cast<std::size_t>(i)])
               << (8 * i);
  }
  return m;
}

}  // namespace hyco
