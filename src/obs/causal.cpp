#include "obs/causal.h"

#include <algorithm>

#include "util/assert.h"

namespace hyco::obs {

namespace {

/// The binary value a DECIDE message carries; nullopt for anything else.
std::optional<int> decided_bit(const Message& m) {
  if (m.kind != MsgKind::Decide || !is_binary(m.est)) return std::nullopt;
  return estimate_to_bit(m.est);
}

}  // namespace

CausalGraph CausalGraph::build(TraceMeta meta,
                               std::vector<TraceRecord> records) {
  CausalGraph g;
  g.meta_ = std::move(meta);
  g.records_ = std::move(records);
  for (std::size_t i = 0; i < g.records_.size(); ++i) {
    const TraceRecord& r = g.records_[i];
    if (r.mid == 0) continue;
    if (r.kind == TraceKind::Send) {
      g.mid_send_.emplace(r.mid, i);
    } else if (r.kind == TraceKind::Deliver || r.kind == TraceKind::Drop) {
      g.mid_consume_.emplace(r.mid, i);
    }
  }
  return g;
}

std::size_t CausalGraph::send_of(std::uint64_t mid) const {
  const auto it = mid_send_.find(mid);
  return it == mid_send_.end() ? npos : it->second;
}

std::size_t CausalGraph::consume_of(std::uint64_t mid) const {
  const auto it = mid_consume_.find(mid);
  return it == mid_consume_.end() ? npos : it->second;
}

std::vector<std::size_t> CausalGraph::causes(std::size_t i) const {
  std::vector<std::size_t> out;
  const TraceRecord& r = records_[i];
  if (r.parent != 0) {
    const std::size_t d = consume_of(r.parent);
    if (d != npos && d != i) out.push_back(d);
  }
  if ((r.kind == TraceKind::Deliver || r.kind == TraceKind::Drop) &&
      r.mid != 0) {
    const std::size_t s = send_of(r.mid);
    if (s != npos) out.push_back(s);
  }
  return out;
}

std::vector<std::size_t> CausalGraph::backward_slice(std::size_t i) const {
  HYCO_CHECK_MSG(i < records_.size(), "slice root out of range");
  std::vector<char> seen(records_.size(), 0);
  std::vector<std::size_t> stack{i};
  seen[i] = 1;
  while (!stack.empty()) {
    const std::size_t cur = stack.back();
    stack.pop_back();
    for (const std::size_t c : causes(cur)) {
      if (seen[c] != 0) continue;
      seen[c] = 1;
      stack.push_back(c);
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < seen.size(); ++k) {
    if (seen[k] != 0) out.push_back(k);
  }
  return out;
}

std::vector<std::size_t> CausalGraph::critical_path(std::size_t i) const {
  HYCO_CHECK_MSG(i < records_.size(), "path root out of range");
  std::vector<std::size_t> rev;
  std::vector<char> seen(records_.size(), 0);
  std::size_t cur = i;
  while (cur != npos && seen[cur] == 0) {
    seen[cur] = 1;
    rev.push_back(cur);
    const TraceRecord& r = records_[cur];
    std::size_t next = npos;
    if ((r.kind == TraceKind::Deliver || r.kind == TraceKind::Drop) &&
        r.mid != 0) {
      next = send_of(r.mid);
    }
    if (next == npos && r.parent != 0) next = consume_of(r.parent);
    cur = next;
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

std::vector<std::size_t> CausalGraph::decides() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].kind == TraceKind::Decide) out.push_back(i);
  }
  return out;
}

std::vector<CausalGraph::QuorumWait> CausalGraph::quorum_waits() const {
  std::vector<QuorumWait> out;
  // Open window per process: index into `out` or npos.
  std::unordered_map<ProcId, std::size_t> open;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const TraceRecord& r = records_[i];
    switch (r.kind) {
      case TraceKind::PhaseStart: {
        open.erase(r.proc);
        QuorumWait w;
        w.proc = r.proc;
        w.round = r.round;
        w.phase = r.phase;
        w.begin = r.at;
        open[r.proc] = out.size();
        out.push_back(w);
        break;
      }
      case TraceKind::Quorum: {
        const auto it = open.find(r.proc);
        if (it == open.end()) break;
        QuorumWait& w = out[it->second];
        if (!w.satisfied && r.round == w.round && r.phase == w.phase) {
          w.satisfied = true;
          w.quorum = r.at;
          w.arrivals_at_quorum = w.arrivals_total;
        }
        break;
      }
      case TraceKind::Deliver: {
        const auto it = open.find(r.proc);
        if (it == open.end()) break;
        QuorumWait& w = out[it->second];
        if (r.msg.kind == MsgKind::Phase && r.msg.round == w.round &&
            r.msg.phase == w.phase) {
          ++w.arrivals_total;
          w.last_arrival = r.at;
        }
        break;
      }
      case TraceKind::Decide:
        open.erase(r.proc);
        break;
      default:
        break;
    }
  }
  // Windows still open at the end of the trace never reached a quorum or a
  // decision — stalled phases.
  for (const auto& [proc, idx] : open) {
    if (!out[idx].satisfied) out[idx].stalled = true;
  }
  return out;
}

CausalGraph::Provenance CausalGraph::provenance(
    std::size_t decide_index) const {
  HYCO_CHECK_MSG(decide_index < records_.size(), "decide index out of range");
  const TraceRecord& dec = records_[decide_index];
  HYCO_CHECK_MSG(dec.kind == TraceKind::Decide,
                 "provenance root must be a Decide record");
  Provenance p;
  p.decide_index = decide_index;
  p.proc = dec.proc;
  p.round = dec.round;
  p.at = dec.at;
  p.slice = backward_slice(decide_index);

  for (const std::size_t i : p.slice) {
    const TraceRecord& r = records_[i];
    if (r.kind != TraceKind::Deliver) continue;
    p.support.push_back(i);
    if (r.msg.kind == MsgKind::Phase && r.msg.phase == Phase::One &&
        r.msg.round == p.round && r.peer >= 0) {
      if (std::find(p.phase1_senders.begin(), p.phase1_senders.end(),
                    r.peer) == p.phase1_senders.end()) {
        p.phase1_senders.push_back(r.peer);
      }
    }
  }
  std::sort(p.phase1_senders.begin(), p.phase1_senders.end());

  // Decided value: the DECIDE delivery that triggered this decide (parent
  // edge), or failing that, the DECIDE broadcast the decide itself emits
  // (Send records at the same proc whose parent is the decide's parent,
  // scanning forward from the decide).
  if (dec.parent != 0) {
    const std::size_t trigger = consume_of(dec.parent);
    if (trigger != npos) p.decided_est = decided_bit(records_[trigger].msg);
  }
  if (!p.decided_est.has_value()) {
    for (std::size_t i = decide_index + 1; i < records_.size(); ++i) {
      const TraceRecord& r = records_[i];
      if (r.at != dec.at) break;  // the broadcast happens at decide time
      if (r.kind == TraceKind::Send && r.proc == dec.proc) {
        p.decided_est = decided_bit(r.msg);
        if (p.decided_est.has_value()) break;
      }
    }
  }

  // Consistency: binary phase-2 estimates of the deciding round inside the
  // slice must match the decided value — a mismatch means the slice carried
  // support for the other value, which a correct run cannot produce.
  if (p.decided_est.has_value()) {
    for (const std::size_t i : p.support) {
      const Message& m = records_[i].msg;
      if (m.kind == MsgKind::Phase && m.phase == Phase::Two &&
          m.round == p.round && is_binary(m.est) &&
          estimate_to_bit(m.est) != *p.decided_est) {
        p.est_consistent = false;
        break;
      }
    }
  }
  return p;
}

}  // namespace hyco::obs
