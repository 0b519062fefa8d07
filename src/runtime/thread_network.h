// Message passing between real threads: one mailbox per process and the
// paper's unreliable broadcast macro. It implements the INetwork the
// simulator's SimNetwork implements, so the same event-driven processes
// run on either host.
//
// Scripted crashes follow the simulator's CrashPlan: an OnBroadcast spec
// fires at the sender's k-th broadcast, which reaches `deliver_count`
// random peers before the sender crashes. AtTime specs are rejected:
// threads have no virtual time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.h"
#include "net/network.h"
#include "runtime/mailbox.h"
#include "sim/crash.h"
#include "util/rng.h"

namespace hyco {

/// Thread-safe n-process network over mailboxes. A process's send and
/// broadcast must come from its own thread: its broadcast count, crash
/// RNG and crash flag are touched by that thread only.
class ThreadNetwork final : public INetwork {
 public:
  /// `crashes` is empty (nobody crashes) or one spec per process, each
  /// None or OnBroadcast; `seed` derives each sender's crash RNG.
  ThreadNetwork(ProcId n, const CrashPlan& crashes, std::uint64_t seed);

  void send(ProcId from, ProcId to, const Message& m) override;
  void broadcast(ProcId from, const Message& m) override;
  [[nodiscard]] ProcId n() const override { return n_; }

  Mailbox& mailbox(ProcId p) { return *mailboxes_[static_cast<std::size_t>(p)]; }

  /// Whether p's scripted crash fired. Read it from p's own thread, or
  /// after the process threads joined.
  [[nodiscard]] bool crashed(ProcId p) const override {
    return senders_[static_cast<std::size_t>(p)].crashed;
  }

  /// Closes every mailbox (shutdown path of the threaded runner).
  void close_all();

  [[nodiscard]] std::uint64_t messages_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }

 private:
  struct Sender {
    CrashSpec crash;
    Rng rng;
    std::int32_t broadcasts = 0;
    bool crashed = false;
  };

  ProcId n_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<Sender> senders_;
  std::atomic<std::uint64_t> sent_{0};
};

}  // namespace hyco
