#include "runtime/thread_network.h"

#include <algorithm>
#include <numeric>

#include "util/assert.h"

namespace hyco {

ThreadNetwork::ThreadNetwork(ProcId n, const CrashPlan& crashes,
                             std::uint64_t seed)
    : n_(n) {
  HYCO_CHECK_MSG(n > 0, "network needs at least one process");
  HYCO_CHECK_MSG(crashes.specs.empty() ||
                     crashes.specs.size() == static_cast<std::size_t>(n),
                 "crash plan size mismatch");
  mailboxes_.reserve(static_cast<std::size_t>(n));
  senders_.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    Sender& s = senders_.emplace_back();
    s.rng = Rng(mix64(seed, 0x7EAD + static_cast<std::uint64_t>(p)));
    if (!crashes.specs.empty()) {
      s.crash = crashes.specs[static_cast<std::size_t>(p)];
      HYCO_CHECK_MSG(s.crash.kind != CrashSpec::Kind::AtTime,
                     "p" << p << ": threads have no virtual time for an "
                                 "AtTime crash");
    }
  }
}

void ThreadNetwork::send(ProcId from, ProcId to, const Message& m) {
  HYCO_CHECK_MSG(from >= 0 && from < n_ && to >= 0 && to < n_,
                 "send with out-of-range process id");
  if (crashed(from)) return;
  sent_.fetch_add(1, std::memory_order_relaxed);
  mailboxes_[static_cast<std::size_t>(to)]->push(Envelope{from, m});
}

void ThreadNetwork::broadcast(ProcId from, const Message& m) {
  HYCO_CHECK_MSG(from >= 0 && from < n_, "broadcast from unknown process");
  Sender& s = senders_[static_cast<std::size_t>(from)];
  if (s.crashed) return;
  const std::int32_t mine = s.broadcasts++;
  if (s.crash.kind == CrashSpec::Kind::OnBroadcast &&
      s.crash.broadcast_index == mine) {
    // Die mid-broadcast, as SimNetwork does: reach deliver_count random
    // peers, then halt.
    const auto k = static_cast<std::size_t>(
        std::clamp<std::int32_t>(s.crash.deliver_count, 0, n_));
    std::vector<ProcId> peers(static_cast<std::size_t>(n_));
    std::iota(peers.begin(), peers.end(), 0);
    s.rng.partial_shuffle(peers, k);
    for (std::size_t i = 0; i < k; ++i) send(from, peers[i], m);
    s.crashed = true;
    return;
  }
  for (ProcId to = 0; to < n_; ++to) send(from, to, m);
}

void ThreadNetwork::close_all() {
  for (auto& mb : mailboxes_) mb->close();
}

}  // namespace hyco
