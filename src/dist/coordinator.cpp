#include "dist/coordinator.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <utility>

#include "util/assert.h"
#include "util/log.h"

namespace hyco::dist {

struct Coordinator::Conn {
  int fd = -1;
  std::uint64_t owner = 0;
  bool welcomed = false;
  FrameBuffer buf;
  // Health-endpoint bookkeeping (observability only — never drives the
  // lease/fold protocol):
  WorkLedger::Clock::time_point connected_at{};
  WorkLedger::Clock::time_point last_seen{};
  std::uint64_t folded_chunks = 0;
  std::uint64_t folded_runs = 0;
  std::uint64_t reconnects = 0;  ///< re-hello count the Hello carried
};

Coordinator::Coordinator(std::vector<ExperimentCell> cells,
                         std::vector<RunSpan> spans,
                         std::uint64_t fingerprint, CoordinatorOptions opts)
    : cells_(std::move(cells)),
      opts_(std::move(opts)),
      fingerprint_(fingerprint),
      ledger_(cells_.size(), opts_.lease_grain) {
  for (std::size_t pos = 0; pos < cells_.size(); ++pos) {
    index_to_pos_.emplace(cells_[pos].index, pos);
    resumed_runs_ += cells_[pos].runs;
  }
  for (const RunSpan& s : spans) {
    ledger_.add_span(s.cell_pos, s.begin, s.end);
  }
  resumed_runs_ -= ledger_.total_runs();
}

Coordinator::~Coordinator() {
  for (const auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (health_fd_ >= 0) ::close(health_fd_);
}

void Coordinator::bind() {
  HYCO_CHECK_MSG(listen_fd_ < 0, "coordinator already bound");
  listen_fd_ = listen_on(opts_.port, &bound_port_);
  if (opts_.health_port >= 0) {
    HYCO_CHECK_MSG(opts_.health_port <= 65535,
                   "health port " << opts_.health_port << " out of range");
    health_fd_ = listen_on(static_cast<std::uint16_t>(opts_.health_port),
                           &health_port_);
  }
}

obs::HealthSnapshot Coordinator::snapshot(
    WorkLedger::Clock::time_point started) const {
  const auto now = WorkLedger::Clock::now();
  const auto ms_since = [&now](WorkLedger::Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(now - t)
        .count();
  };
  obs::HealthSnapshot snap;
  snap.elapsed_ms = ms_since(started);
  snap.runs_total = resumed_runs_ + ledger_.total_runs();
  snap.runs_folded = resumed_runs_ + ledger_.folded_runs();
  snap.runs_resumed = resumed_runs_;
  snap.cells_total = cells_.size();
  for (std::size_t pos = 0; pos < cells_.size(); ++pos) {
    snap.cells_completed += ledger_.cell_folded(pos) ? 1 : 0;
  }
  snap.chunks_total = ledger_.chunk_count();
  snap.chunks_pending = ledger_.pending_chunks();
  snap.chunks_leased = ledger_.leased_chunks();
  snap.chunks_folded = ledger_.folded_chunks();
  // Fold rate over this serve()'s own folds (resumed runs were not earned
  // in this session); ETA extrapolates it over the unfolded remainder.
  const double elapsed_sec =
      static_cast<double>(snap.elapsed_ms) / 1000.0;
  if (elapsed_sec > 0.0 && ledger_.folded_runs() > 0) {
    snap.fold_rate_per_sec =
        static_cast<double>(ledger_.folded_runs()) / elapsed_sec;
    snap.eta_sec =
        static_cast<double>(ledger_.total_runs() - ledger_.folded_runs()) /
        snap.fold_rate_per_sec;
  }
  snap.lease_expiries = lease_expiries_;
  snap.requeued_chunks = requeued_chunks_;
  snap.worker_reconnects = worker_reconnects_;
  if (last_flush_.has_value()) {
    snap.checkpoint_flush_ms = ms_since(*last_flush_);
  }
  snap.workers.reserve(conns_.size());
  for (const auto& c : conns_) {
    obs::WorkerHealth w;
    w.id = c->owner;
    w.welcomed = c->welcomed;
    w.connected_ms = ms_since(c->connected_at);
    w.last_seen_ms = ms_since(c->last_seen);
    w.active_leases = ledger_.leased_to(c->owner);
    w.folded_chunks = c->folded_chunks;
    w.folded_runs = c->folded_runs;
    w.reconnects = c->reconnects;
    w.oldest_lease_ms = ledger_.oldest_lease_age_ms(c->owner, now);
    snap.workers.push_back(w);
  }
  return snap;
}

void Coordinator::serve_health_request(
    WorkLedger::Clock::time_point started) {
  const int fd = ::accept(health_fd_, nullptr, nullptr);
  if (fd < 0) return;
  // Short timeouts: a stalled client must not wedge the poll loop (the
  // endpoint is read-only and the response is one small buffer).
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  char req[1024];
  (void)::recv(fd, req, sizeof(req), 0);  // request contents are irrelevant
  const std::string resp =
      obs::render_http_response(obs::render_health_json(snapshot(started)));
  (void)::send(fd, resp.data(), resp.size(), 0);
  ::close(fd);
}

bool Coordinator::handle_frame(Conn& conn, const Frame& frame,
                               RunSink& sink) {
  if (!conn.welcomed) {
    if (frame.type != MsgType::kHello) return false;
    HelloMsg hello;
    if (!decode_hello(frame.payload, hello)) return false;
    std::ostringstream why;
    if (hello.version != kProtocolVersion) {
      why << "protocol version " << hello.version << " != "
          << kProtocolVersion;
    } else if (hello.fingerprint != fingerprint_) {
      why << "grid fingerprint mismatch (worker " << hello.fingerprint
          << ", coordinator " << fingerprint_
          << ") — start the worker with the same grid flags";
    } else if (hello.reservoir_capacity != opts_.reservoir_capacity ||
               hello.failure_capacity != opts_.failure_capacity) {
      why << "accumulator capacities differ";
    }
    const std::string reason = why.str();
    if (!reason.empty()) {
      (void)send_frame(conn.fd, MsgType::kReject, encode_reject(reason));
      return false;
    }
    conn.welcomed = true;
    conn.reconnects = hello.reconnect;
    if (hello.reconnect > 0) ++worker_reconnects_;
    return send_frame(conn.fd, MsgType::kWelcome, "");
  }

  switch (frame.type) {
    case MsgType::kLeaseReq: {
      if (ledger_.all_folded()) {
        return send_frame(conn.fd, MsgType::kDone, "");
      }
      // Shrink leases toward lease_floor as the pending pool drains so the
      // sweep's tail lands on every connected worker at once.
      const std::uint64_t cap = adaptive_lease_cap(
          opts_.lease_grain, opts_.lease_floor,
          ledger_.total_runs() - ledger_.folded_runs(),
          std::max<std::size_t>(conns_.size(), 1));
      const auto lease = ledger_.acquire(
          conn.owner, WorkLedger::Clock::now(), opts_.lease_ttl, cap);
      if (!lease.has_value()) {
        // Everything is leased out; the worker retries after a tick.
        return send_frame(
            conn.fd, MsgType::kWait,
            encode_wait(static_cast<std::uint32_t>(
                opts_.poll_interval.count() * 2)));
      }
      LeaseMsg msg;
      msg.cell_index = cells_[static_cast<std::size_t>(lease->cell_pos)].index;
      msg.begin = lease->begin;
      msg.end = lease->end;
      return send_frame(conn.fd, MsgType::kLease, encode_lease(msg));
    }
    case MsgType::kResult: {
      ResultMsg result;
      if (!decode_result(frame.payload, result)) return false;
      const auto it = index_to_pos_.find(result.cell_index);
      if (it == index_to_pos_.end()) return false;
      const std::size_t pos = it->second;
      // An accumulator built with foreign capacities would merge into a
      // different statistic — refuse it (the handshake pinned these).
      if (result.acc.failure_cap != opts_.failure_capacity ||
          result.acc.rounds.reservoir().capacity() !=
              opts_.reservoir_capacity) {
        return false;
      }
      const auto fold = ledger_.fold(pos, result.begin, result.end);
      switch (fold.outcome) {
        case WorkLedger::FoldOutcome::kUnknown:
          return false;  // never leased that range — protocol violation
        case WorkLedger::FoldOutcome::kDuplicate:
          return true;  // raced an expired lease; first result won
        case WorkLedger::FoldOutcome::kAccepted:
          break;
      }
      ++conn.folded_chunks;
      conn.folded_runs += result.end - result.begin;
      ++accepted_folds_;
      sink.absorb(pos, result.begin, result.end, std::move(result.acc), {});
      if (fold.cell_completed) sink.on_cell_complete(pos);
      if (sink.checkpoints()) last_flush_ = WorkLedger::Clock::now();
      if (opts_.crash_after_chunks > 0 &&
          accepted_folds_ >= opts_.crash_after_chunks) {
        // Injected crash: die the way SIGKILL would — every socket torn
        // down with no Done broadcast, nothing flushed beyond what the
        // sink above already wrote. Tests restart from the checkpoint.
        for (const auto& c : conns_) {
          if (c->fd >= 0) ::close(c->fd);
        }
        conns_.clear();
        if (listen_fd_ >= 0) {
          ::close(listen_fd_);
          listen_fd_ = -1;
        }
        if (health_fd_ >= 0) {
          ::close(health_fd_);
          health_fd_ = -1;
        }
        throw ChaosKill{accepted_folds_};
      }
      return true;
    }
    default:
      return false;
  }
}

void Coordinator::serve(RunSink& sink) {
  HYCO_CHECK_MSG(listen_fd_ >= 0, "coordinator: call bind() before serve()");

  const auto started = WorkLedger::Clock::now();
  std::vector<pollfd> pfds;
  std::vector<char> rdbuf(1 << 16);
  while (!ledger_.all_folded()) {
    if (opts_.max_wait.count() > 0) {
      HYCO_CHECK_MSG(WorkLedger::Clock::now() - started < opts_.max_wait,
                     "coordinator: grid incomplete after "
                         << opts_.max_wait.count() << " ms ("
                         << ledger_.folded_runs() << '/'
                         << ledger_.total_runs() << " runs folded)");
    }
    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    if (health_fd_ >= 0) pfds.push_back({health_fd_, POLLIN, 0});
    // Worker connections start after the listeners.
    const std::size_t conn_base = health_fd_ >= 0 ? 2 : 1;
    for (const auto& c : conns_) pfds.push_back({c->fd, POLLIN, 0});
    const int rc = ::poll(pfds.data(), pfds.size(),
                          static_cast<int>(opts_.poll_interval.count()));
    if (rc < 0) {
      HYCO_CHECK_MSG(errno == EINTR,
                     "coordinator: poll() failed: " << errno);
      continue;
    }

    if (health_fd_ >= 0 && (pfds[1].revents & POLLIN) != 0) {
      serve_health_request(started);
    }

    // One accept per readiness; further backlog surfaces on the next tick
    // (the listener stays blocking, so accept() is only safe when poll
    // reported it readable).
    if ((pfds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        // Bounded sends: a peer that writes requests without ever reading
        // replies would otherwise block the single-threaded loop forever
        // once its receive window fills. After the timeout send_frame
        // fails and the connection is dropped like any other dead worker.
        timeval tv{};
        tv.tv_sec = 10;
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->owner = next_owner_++;
        conn->connected_at = WorkLedger::Clock::now();
        conn->last_seen = conn->connected_at;
        conns_.push_back(std::move(conn));
      }
    }

    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i + conn_base < pfds.size(); ++i) {
      Conn& conn = *conns_[i];
      const short re = pfds[i + conn_base].revents;
      if (re == 0) continue;
      bool ok = (re & (POLLERR | POLLNVAL)) == 0;
      if (ok && (re & (POLLIN | POLLHUP)) != 0) {
        const ssize_t n = ::recv(conn.fd, rdbuf.data(), rdbuf.size(), 0);
        if (n <= 0) {
          ok = false;
        } else {
          conn.last_seen = WorkLedger::Clock::now();
          conn.buf.feed(rdbuf.data(), static_cast<std::size_t>(n));
          while (ok) {
            const auto frame = conn.buf.next();
            if (!frame.has_value()) {
              ok = !conn.buf.error();
              break;
            }
            ok = handle_frame(conn, *frame, sink);
          }
        }
      }
      if (!ok) dead.push_back(i);
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      Conn& conn = *conns_[*it];
      requeued_chunks_ += ledger_.release_owner(conn.owner);
      ::close(conn.fd);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(*it));
    }

    const std::size_t expired = ledger_.expire(WorkLedger::Clock::now());
    if (expired > 0) {
      lease_expiries_ += expired;
      requeued_chunks_ += expired;
      // Expiry cannot tell a wedged worker from a healthy-but-slow one;
      // the re-executed work is dropped as a duplicate either way, but
      // recurring expiries mean the lease is mis-sized — say so.
      HYCO_WARN("coordinator: " << expired
                << " lease(s) expired and re-queued (if workers are healthy,"
                   " raise --lease-ttl or lower --lease so a chunk finishes"
                   " within its lease)");
    }
    if (opts_.progress) {
      opts_.progress(resumed_runs_ + ledger_.folded_runs(),
                     resumed_runs_ + ledger_.total_runs(), conns_.size());
    }
  }

  // Unsolicited Done so workers parked on a Wait disconnect cleanly. Then
  // half-close and *drain* until each peer closes (bounded): closing with
  // a worker's final Result/LeaseReq still unread would send an RST that
  // can discard the Done out of the worker's receive buffer, turning a
  // successful grid into a spurious worker-side failure.
  for (const auto& c : conns_) {
    (void)send_frame(c->fd, MsgType::kDone, "");
    ::shutdown(c->fd, SHUT_WR);
  }
  const auto drain_deadline =
      WorkLedger::Clock::now() + std::chrono::seconds(2);
  while (!conns_.empty() && WorkLedger::Clock::now() < drain_deadline) {
    pfds.clear();
    for (const auto& c : conns_) pfds.push_back({c->fd, POLLIN, 0});
    if (::poll(pfds.data(), pfds.size(), 100) <= 0) continue;
    for (std::size_t i = pfds.size(); i-- > 0;) {
      if (pfds[i].revents == 0) continue;
      const ssize_t n =
          ::recv(conns_[i]->fd, rdbuf.data(), rdbuf.size(), 0);
      if (n <= 0) {
        ::close(conns_[i]->fd);
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      }  // else: discard — the grid is complete, frames no longer matter
    }
  }
  for (const auto& c : conns_) ::close(c->fd);
  conns_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (health_fd_ >= 0) {
    ::close(health_fd_);
    health_fd_ = -1;
  }
}

}  // namespace hyco::dist
