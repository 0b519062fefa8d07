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

}  // namespace hyco
