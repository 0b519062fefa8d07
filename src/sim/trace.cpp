#include "sim/trace.h"

namespace hyco {

const char* to_cstring(TraceKind k) {
  switch (k) {
    case TraceKind::Send: return "send";
    case TraceKind::Deliver: return "deliver";
    case TraceKind::Drop: return "drop";
    case TraceKind::Crash: return "crash";
    case TraceKind::PhaseStart: return "phase";
    case TraceKind::Decide: return "decide";
    case TraceKind::Quorum: return "quorum";
    case TraceKind::SvcOp: return "svc_op";
    case TraceKind::SvcFlush: return "svc_flush";
    case TraceKind::SvcSlot: return "svc_slot";
    case TraceKind::SvcDeliver: return "svc_deliver";
  }
  return "?";
}

void write_detail(std::ostream& os, const TraceRecord& r) {
  switch (r.kind) {
    case TraceKind::Send:
      os << r.msg << " -> p" << r.peer;
      break;
    case TraceKind::Deliver:
      os << r.msg << " from p" << r.peer;
      break;
    case TraceKind::Drop:
      if (r.cause == DropCause::ReceiverCrashed) {
        os << "receiver crashed; " << r.msg;
      } else {
        os << (r.cause == DropCause::Lost ? "lost; " : "partitioned; ")
           << r.msg << " -> p" << r.peer;
      }
      break;
    case TraceKind::Crash:
      os << "mid-broadcast, delivered to " << r.args[0] << " of "
         << r.args[1];
      break;
    case TraceKind::PhaseStart:
    case TraceKind::Quorum:
      os << "r=" << r.round << " ph=" << static_cast<int>(r.phase);
      break;
    case TraceKind::Decide:
      os << "r=" << r.round;
      break;
    case TraceKind::SvcOp:
      os << "op=" << r.args[0];
      break;
    case TraceKind::SvcFlush:
      os << "batch=" << r.args[0] << " ops=" << r.args[1];
      break;
    case TraceKind::SvcSlot:
      os << "slot=" << r.args[0];
      break;
    case TraceKind::SvcDeliver:
      os << "slot=" << r.args[0] << " batch=" << r.args[1]
         << " ops=" << r.args[2];
      break;
  }
}

void Trace::record(const TraceRecord& r) {
  if (!enabled_) return;
  std::size_t idx;
  if (size_ < slots_.size()) {
    idx = (head_ + size_) % slots_.size();
    ++size_;
  } else {
    idx = head_;  // overwrite the oldest slot
    head_ = (head_ + 1) % slots_.size();
  }
  slots_[idx] = r;
  slots_[idx].parent = context_;
  ++recorded_;
}

void Trace::dump(std::ostream& os) const {
  for_each([&](const TraceRecord& r) {
    os << r.at << "ns\t" << to_cstring(r.kind) << "\tp" << r.proc << '\t';
    write_detail(os, r);
    if (r.mid != 0) os << "\t[m" << r.mid << ']';
    if (r.parent != 0) os << "\t[<m" << r.parent << ']';
    os << '\n';
  });
}

void Trace::clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  context_ = 0;
}

}  // namespace hyco
