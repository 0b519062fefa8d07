#include "runtime/threaded_runner.h"

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "coin/coin.h"
#include "runtime/thread_network.h"
#include "shm/cluster_memory.h"
#include "util/assert.h"

namespace hyco {

ThreadRunResult run_threaded(const ThreadRunConfig& cfg) {
  HYCO_CHECK_MSG(cfg.alg != Algorithm::Mm,
                 "m&m runs in the simulator only: a threaded run has no "
                 "memory domain");
  const ProcId n = cfg.layout.n();
  const std::vector<Estimate> inputs =
      cfg.inputs.empty() ? split_inputs(n) : cfg.inputs;
  HYCO_CHECK_MSG(inputs.size() == static_cast<std::size_t>(n),
                 "inputs size mismatch");

  ThreadNetwork net(n, cfg.crashes, cfg.seed);
  const auto memories = make_cluster_memories(cfg.alg, cfg.layout);
  const std::unique_ptr<ICommonCoin> coin = make_common_coin(cfg.seed, 0.0);
  std::vector<std::unique_ptr<IConsensusProcess>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(make_consensus_process(cfg.alg, p, cfg.layout, net,
                                           memories, nullptr, coin.get(),
                                           cfg.seed, nullptr,
                                           cfg.max_rounds));
  }

  std::mutex done_mu;
  std::condition_variable done_cv;
  ProcId done_count = 0;
  std::vector<std::exception_ptr> failures(static_cast<std::size_t>(n));

  ThreadRunResult result;
  {
    std::vector<std::jthread> threads;
    // Destroyed before `threads` on every way out of this block: the
    // mailboxes close, so each jthread's join finds its actor unblocked.
    const struct CloseMailboxes {
      ThreadNetwork& net;
      ~CloseMailboxes() { net.close_all(); }
    } close_mailboxes{net};
    threads.reserve(static_cast<std::size_t>(n));
    for (ProcId p = 0; p < n; ++p) {
      threads.emplace_back([&, p] {
        const auto idx = static_cast<std::size_t>(p);
        IConsensusProcess& proc = *procs[idx];
        Mailbox& inbox = net.mailbox(p);
        try {
          proc.start(inputs[idx]);
          Envelope e;
          while (!proc.decided() && !proc.parked() && !net.crashed(p) &&
                 inbox.pop(e) == Mailbox::PopResult::Ok) {
            proc.on_message(e.from, e.msg);
          }
        } catch (...) {
          failures[idx] = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> lock(done_mu);
          ++done_count;
        }
        done_cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    result.deadline_hit = !done_cv.wait_for(
        lock, cfg.deadline, [&] { return done_count == n; });
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }

  CrashTracker tracker(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    if (net.crashed(p)) tracker.crash(p, 0);
  }
  result.crashed = tracker.crashed_count();
  harvest_decisions(procs, inputs, tracker, result);
  result.messages_sent = net.messages_sent();
  return result;
}

}  // namespace hyco
