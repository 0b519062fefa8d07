#include "runtime/mailbox.h"

namespace hyco {

void Mailbox::push(Envelope e) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    q_.push_back(std::move(e));
  }
  cv_.notify_one();
}

Mailbox::PopResult Mailbox::pop(Envelope& out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !q_.empty() || closed_; });
  if (q_.empty()) return PopResult::Closed;
  out = std::move(q_.front());
  q_.pop_front();
  return PopResult::Ok;
}

void Mailbox::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

}  // namespace hyco
