// Multi-producer single-consumer mailbox: the per-process inbox of the
// thread host. Reliable-channel semantics: push never drops (until close),
// pop blocks until a message or closure.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>

#include "core/types.h"
#include "net/message.h"

namespace hyco {

/// One delivered message with its sender.
struct Envelope {
  ProcId from = -1;
  Message msg;
};

/// Thread-safe blocking queue of envelopes.
class Mailbox {
 public:
  enum class PopResult { Ok, Closed };

  /// Enqueues unless closed (closed mailboxes drop silently — the receiver
  /// has terminated).
  void push(Envelope e);

  /// Blocks until a message arrives or the mailbox is closed and drained.
  PopResult pop(Envelope& out);

  /// Unblocks all waiting consumers; subsequent pushes are dropped.
  void close();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> q_;
  bool closed_ = false;
};

}  // namespace hyco
