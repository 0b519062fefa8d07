#include "dist/worker.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/rng.h"

namespace hyco::dist {

namespace {

struct SessionResult {
  std::uint64_t runs = 0;
  std::uint64_t chunks = 0;
  std::uint64_t reconnects = 0;  ///< successful mid-sweep re-handshakes
  bool done = false;
  /// Never reached the coordinator at all. Benign when a sibling session
  /// saw the grid complete (a fast grid can drain and tear down before
  /// every session connects); fatal when nobody did.
  bool connect_failed = false;
  std::string error;
};

/// One last look for the coordinator's final Done after a socket hiccup
/// mid-protocol (bounded by a 2 s receive timeout): the grid finishing
/// concurrently with our send is success, not failure, and the Done may
/// already sit in our receive buffer.
bool drain_for_done(int fd) {
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  Frame f;
  while (recv_frame(fd, f)) {
    if (f.type == MsgType::kDone) return true;
  }
  return false;
}

int connect_with_retry(const HostPort& target,
                       std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const int fd = connect_once(target);
    if (fd >= 0) return fd;
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

/// How one connection epoch ended.
enum class EpochEnd {
  kDone,   ///< grid complete — the session is finished
  kLost,   ///< connection severed mid-protocol — redial and re-hello
  kFatal,  ///< rejection or protocol violation — retrying cannot help
};

struct Epoch {
  EpochEnd end = EpochEnd::kLost;
  bool welcomed = false;  ///< the handshake completed this epoch
  std::string error;
};

/// One connection epoch: handshake, then the lease/execute/result loop,
/// on an already-connected socket (takes ownership of `fd`, always closes
/// it). Executed work accumulates into `out` across epochs; `reconnect`
/// is the re-hello count this epoch's Hello carries.
Epoch run_epoch(int fd, const std::vector<ExperimentCell>& cells,
                std::uint64_t fingerprint, std::uint64_t reconnect,
                SessionResult& out) {
  Epoch ep;
  const auto finish = [&](EpochEnd end, const std::string& why) {
    ep.end = end;
    ep.error = why;
    ::close(fd);
    return ep;
  };

  HelloMsg hello;
  hello.fingerprint = fingerprint;
  hello.cells = cells.size();
  hello.reconnect = reconnect;
  if (!send_frame(fd, MsgType::kHello, encode_hello(hello))) {
    return finish(EpochEnd::kLost, "connection lost during handshake");
  }
  Frame frame;
  if (!recv_frame(fd, frame)) {
    return finish(EpochEnd::kLost, "connection lost during handshake");
  }
  if (frame.type == MsgType::kReject) {
    return finish(EpochEnd::kFatal,
                  "coordinator rejected us: " + frame.payload);
  }
  if (frame.type == MsgType::kDone) {
    // The grid drained before our Hello was processed — the coordinator
    // broadcasts its final Done to every connection. Nothing to do.
    return finish(EpochEnd::kDone, "");
  }
  if (frame.type != MsgType::kWelcome) {
    return finish(EpochEnd::kFatal, "unexpected handshake reply");
  }
  ep.welcomed = true;

  for (;;) {
    if (!send_frame(fd, MsgType::kLeaseReq, "")) {
      if (drain_for_done(fd)) return finish(EpochEnd::kDone, "");
      return finish(EpochEnd::kLost, "connection lost requesting a lease");
    }
  receive:
    if (!recv_frame(fd, frame)) {
      return finish(EpochEnd::kLost, "connection lost awaiting a lease");
    }
    switch (frame.type) {
      case MsgType::kDone:
        return finish(EpochEnd::kDone, "");
      case MsgType::kWait: {
        std::uint32_t ms = 0;
        if (!decode_wait(frame.payload, ms)) {
          return finish(EpochEnd::kFatal, "malformed wait frame");
        }
        // Park on the socket instead of sleeping blind: the coordinator's
        // final unsolicited Done must interrupt the wait.
        pollfd pfd{fd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, static_cast<int>(ms));
        if (rc > 0) goto receive;  // Done (or any reply) arrived
        continue;                  // timeout — ask again
      }
      case MsgType::kLease: {
        LeaseMsg lease;
        if (!decode_lease(frame.payload, lease)) {
          return finish(EpochEnd::kFatal, "malformed lease frame");
        }
        if (lease.cell_index >= cells.size()) {
          return finish(EpochEnd::kFatal,
                        "lease names a cell outside the grid");
        }
        const ExperimentCell& cell =
            cells[static_cast<std::size_t>(lease.cell_index)];
        if (lease.end > cell.runs) {
          return finish(EpochEnd::kFatal,
                        "lease range exceeds the cell's run count");
        }
        ResultMsg result;
        result.cell_index = lease.cell_index;
        result.begin = lease.begin;
        result.end = lease.end;
        for (std::uint64_t k = lease.begin; k < lease.end; ++k) {
          result.acc.add(cell.run_record(k));
        }
        if (!send_frame(fd, MsgType::kResult, encode_result(result))) {
          // The grid may have completed without this chunk (an expired
          // lease re-executed elsewhere): a Done sitting in our receive
          // buffer means flawless participation, not failure.
          if (drain_for_done(fd)) {
            out.runs += lease.end - lease.begin;
            out.chunks += 1;
            return finish(EpochEnd::kDone, "");
          }
          // The chunk is abandoned, not counted: the coordinator never
          // folded it, and after the redial someone re-executes it.
          return finish(EpochEnd::kLost, "connection lost shipping a result");
        }
        out.runs += lease.end - lease.begin;
        out.chunks += 1;
        continue;
      }
      default:
        return finish(EpochEnd::kFatal, "unexpected frame from coordinator");
    }
  }
}

SessionResult run_session(const std::vector<ExperimentCell>& cells,
                          std::uint64_t fingerprint,
                          const WorkerOptions& opts, unsigned session_id) {
  SessionResult out;
  int fd = connect_with_retry(opts.target, opts.connect_timeout);
  if (fd < 0) {
    std::ostringstream os;
    os << "cannot connect to " << opts.target.host << ':' << opts.target.port
       << " within " << opts.connect_timeout.count() << " ms";
    out.error = os.str();
    out.connect_failed = true;
    return out;
  }

  // Backoff jitter stream: per-process *and* per-session so sessions (and
  // sibling worker processes) severed by the same fault don't redial in
  // lockstep. Jitter never touches run seeds, so output bytes are immune.
  Rng jitter = Rng(mix64(static_cast<std::uint64_t>(::getpid()),
                         0x7E11A5ECULL))
                   .fork(session_id);
  bool ever_welcomed = false;
  unsigned failures = 0;  // consecutive recovery attempts without a Welcome
  for (;;) {
    const Epoch ep = run_epoch(fd, cells, fingerprint, out.reconnects, out);
    ever_welcomed = ever_welcomed || ep.welcomed;
    if (ep.welcomed) failures = 0;
    if (ep.end == EpochEnd::kDone) {
      out.done = true;
      return out;
    }
    if (ep.end == EpochEnd::kFatal) {
      out.error = ep.error;
      return out;
    }
    // kLost: redial with jittered exponential backoff within the budget.
    fd = -1;
    while (fd < 0) {
      if (failures >= opts.reconnect_attempts) {
        out.error = ep.error.empty() ? "connection lost" : ep.error;
        out.connect_failed = !ever_welcomed;
        return out;
      }
      ++failures;
      const unsigned shift = std::min(failures - 1, 10u);
      const auto base = std::min<std::int64_t>(
          opts.reconnect_cap.count(), opts.reconnect_base.count() << shift);
      const auto delay = static_cast<std::int64_t>(
          static_cast<double>(std::max<std::int64_t>(base, 1)) *
          (0.5 + jitter.next_double()));
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      fd = connect_once(opts.target);
    }
    ++out.reconnects;
  }
}

}  // namespace

WorkerReport run_worker(const std::vector<ExperimentCell>& cells,
                        std::uint64_t fingerprint,
                        const WorkerOptions& opts) {
  const unsigned sessions = opts.sessions == 0 ? 1 : opts.sessions;
  std::vector<SessionResult> results(sessions);
  if (sessions == 1) {
    results[0] = run_session(cells, fingerprint, opts, 0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (unsigned s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        results[s] = run_session(cells, fingerprint, opts, s);
      });
    }
    for (auto& t : threads) t.join();
  }

  WorkerReport report;
  bool any_done = false;
  bool hard_error = false;
  for (const SessionResult& r : results) {
    report.runs_executed += r.runs;
    report.chunks_executed += r.chunks;
    report.reconnects += r.reconnects;
    any_done = any_done || r.done;
    hard_error = hard_error || (!r.done && !r.connect_failed);
  }
  // A session that merely failed to connect is benign when a sibling saw
  // the grid complete — on a fast grid the coordinator can finish and
  // tear down before every session joins. With no sibling success it is
  // indistinguishable from a wrong address and stays fatal.
  report.completed = any_done && !hard_error;
  if (!report.completed) {
    for (const SessionResult& r : results) {
      if (!r.error.empty()) {
        report.error = r.error;
        break;
      }
    }
  }
  return report;
}

}  // namespace hyco::dist
