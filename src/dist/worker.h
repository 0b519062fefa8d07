// Worker side of the distributed sweep engine: connects to a coordinator,
// leases chunk-sized run ranges, executes them through the exact same
// ExperimentCell::run_record()/CellAccumulator pipeline a local sweep uses
// (consensus and service cells alike), and ships the accumulator state
// back over the wire.
//
// A worker is launched with the *same grid flags* as the coordinator (the
// grid itself never crosses the wire); the Hello handshake compares grid
// fingerprints so a mismatched worker is rejected before any run executes.
// `sessions` independent connections give a worker process N-way
// parallelism — each session is its own socket + thread with a strictly
// request/response protocol, which keeps the coordinator trivially
// single-threaded.
//
// Sessions self-heal: a connection lost mid-sweep (network sever, or the
// coordinator itself crashing and being restarted with --resume) is
// redialed with jittered exponential backoff and a fresh Hello carrying a
// bumped reconnect count. The un-shipped chunk in flight is abandoned —
// the coordinator's disconnect/TTL machinery re-queues it — so recovery
// never changes output bytes, only who executes what.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/proto.h"
#include "exp/sink.h"
#include "exp/spec.h"

namespace hyco::dist {

struct WorkerOptions {
  HostPort target;
  /// Parallel protocol sessions (threads). Each leases and executes
  /// independently.
  unsigned sessions = 1;
  /// How long to keep retrying the initial connect (the coordinator may
  /// still be starting).
  std::chrono::milliseconds connect_timeout{10'000};
  /// Mid-sweep recovery budget: after losing a live connection (worker-side
  /// sever, coordinator crash/restart) a session redials with jittered
  /// exponential backoff and re-Hellos; this caps *consecutive* failed
  /// recovery attempts before the session gives up. The counter resets on
  /// every accepted re-handshake, so a flaky link that keeps coming back is
  /// tolerated indefinitely. 0 = a mid-sweep disconnect is fatal (the
  /// pre-recovery behavior). Any un-shipped local chunk is abandoned on
  /// reconnect — the coordinator re-leases it, so output bytes never change.
  unsigned reconnect_attempts = 5;
  /// First-retry backoff; doubles per consecutive failure (jittered to
  /// 0.5–1.5× so severed siblings don't redial in lockstep).
  std::chrono::milliseconds reconnect_base{250};
  /// Backoff ceiling.
  std::chrono::milliseconds reconnect_cap{4'000};
};

struct WorkerReport {
  std::uint64_t runs_executed = 0;
  std::uint64_t chunks_executed = 0;
  /// Successful mid-sweep re-handshakes across all sessions.
  std::uint64_t reconnects = 0;
  /// True when the grid completed from this worker's point of view: at
  /// least one session received the coordinator's Done, and no session hit
  /// a protocol or mid-work failure. A session that never managed to
  /// *connect* is tolerated when a sibling saw Done — a fast grid can
  /// drain and tear the coordinator down before every session joins.
  bool completed = false;
  /// First failure (empty when completed).
  std::string error;
};

/// Runs worker sessions against a coordinator until the grid is done (or a
/// session fails). `cells` must be the full grid expansion; `fingerprint`
/// its grid_fingerprint().
WorkerReport run_worker(const std::vector<ExperimentCell>& cells,
                        std::uint64_t fingerprint,
                        const WorkerOptions& opts);

}  // namespace hyco::dist
